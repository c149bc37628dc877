(* Bit vectors stored as little-endian 32-bit limbs held in OCaml ints.
   Invariant: bits of the top limb above [width mod 32] are zero, so
   structural equality of the limb arrays coincides with value equality. *)

type t = { width : int; limbs : int array }

let limb_bits = 32
let limb_mask = 0xFFFF_FFFF

let nlimbs width = (width + limb_bits - 1) / limb_bits

(* Mask applicable to the top limb of a vector of width [w]. *)
let top_mask w =
  let r = w mod limb_bits in
  if r = 0 then limb_mask else (1 lsl r) - 1

let check_width w = if w <= 0 then invalid_arg "Bits: width must be positive"

(* Literals for the common widths (up to 128 bits) are allocated inline;
   [Array.make] is a call into the runtime. *)
let zero_limbs = function
  | 1 -> [| 0 |]
  | 2 -> [| 0; 0 |]
  | 3 -> [| 0; 0; 0 |]
  | 4 -> [| 0; 0; 0; 0 |]
  | n -> Array.make n 0

let zero w =
  check_width w;
  { width = w; limbs = zero_limbs (nlimbs w) }

let normalize v =
  let n = Array.length v.limbs in
  v.limbs.(n - 1) <- v.limbs.(n - 1) land top_mask v.width;
  v

let ones w =
  check_width w;
  normalize { width = w; limbs = Array.make (nlimbs w) limb_mask }

let of_int ~width n =
  check_width width;
  if n < 0 then invalid_arg "Bits.of_int: negative value";
  let v = zero width in
  let rec fill i n = if n <> 0 && i < Array.length v.limbs then begin
      v.limbs.(i) <- n land limb_mask;
      fill (i + 1) (n lsr limb_bits)
    end in
  fill 0 n;
  normalize v

let of_int64 ~width n =
  check_width width;
  let v = zero width in
  let lo = Int64.to_int (Int64.logand n 0xFFFF_FFFFL) in
  let hi = Int64.to_int (Int64.logand (Int64.shift_right_logical n 32) 0xFFFF_FFFFL) in
  if Array.length v.limbs > 0 then v.limbs.(0) <- lo;
  if Array.length v.limbs > 1 then v.limbs.(1) <- hi;
  normalize v

let of_bool b = of_int ~width:1 (if b then 1 else 0)

let width v = v.width

let get v i =
  if i < 0 || i >= v.width then invalid_arg "Bits.get: index out of range";
  v.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let set v i b =
  if i < 0 || i >= v.width then invalid_arg "Bits.set: index out of range";
  let limbs = Array.copy v.limbs in
  let j = i / limb_bits and k = i mod limb_bits in
  limbs.(j) <- (if b then limbs.(j) lor (1 lsl k) else limbs.(j) land lnot (1 lsl k));
  { v with limbs }

let init ~width f =
  check_width width;
  let v = zero width in
  for i = 0 to width - 1 do
    if f i then begin
      let j = i / limb_bits and k = i mod limb_bits in
      v.limbs.(j) <- v.limbs.(j) lor (1 lsl k)
    end
  done;
  v

let of_binary_string s =
  let digits = ref [] in
  String.iter
    (fun c -> match c with
      | '0' -> digits := false :: !digits
      | '1' -> digits := true :: !digits
      | '_' -> ()
      | _ -> invalid_arg "Bits.of_binary_string: expected 0, 1 or _")
    s;
  (* [digits] is now little-endian: last character pushed first ... actually
     head of the list is the last character of [s], i.e. the LSB. *)
  let bits = Array.of_list !digits in
  if Array.length bits = 0 then invalid_arg "Bits.of_binary_string: empty";
  init ~width:(Array.length bits) (fun i -> bits.(i))

(* Eight digits at a time: a little-endian load puts digit [p + k] in
   byte [k]; every byte is '0' (0x30) or '1' (0x31) exactly when the word
   masked to its high seven bits per byte is all 0x30, and the multiply
   gathers the eight low bits into the top byte, digit [p] highest. The
   eight shifted copies land on distinct bit positions, so nothing
   carries into the top byte. *)
let[@inline] binary_byte s p =
  let w = String.get_int64_le s p in
  if not (Int64.equal (Int64.logand w 0xFEFEFEFEFEFEFEFEL) 0x3030303030303030L) then
    invalid_arg "Bits.of_binary_sub: expected 0 or 1";
  Int64.to_int
    (Int64.shift_right_logical
       (Int64.mul (Int64.logand w 0x0101010101010101L) 0x8040201008040201L)
       56)

(* The digits [start, stop) as a big-endian number of at most 32 bits. *)
let rec binary_limb s p stop acc =
  if p + 8 <= stop then binary_limb s (p + 8) stop ((acc lsl 8) lor binary_byte s p)
  else if p < stop then begin
    let bit = Char.code (String.unsafe_get s p) - Char.code '0' in
    if bit lsr 1 <> 0 then invalid_arg "Bits.of_binary_sub: expected 0 or 1";
    binary_limb s (p + 1) stop ((acc lsl 1) lor bit)
  end
  else acc

(* Limb [j] holds the digits [stop - 32 (j + 1), stop - 32 j). *)
let of_binary_sub ~width s ~pos ~len =
  check_width width;
  if pos < 0 || len < 0 || len > width || pos > String.length s - len then
    invalid_arg "Bits.of_binary_sub";
  let stop = pos + len in
  if width <= limb_bits then { width; limbs = [| binary_limb s pos stop 0 |] }
  else begin
    let v = zero width in
    for j = 0 to ((len + limb_bits - 1) / limb_bits) - 1 do
      let hi = stop - (j * limb_bits) in
      v.limbs.(j) <- binary_limb s (Int.max pos (hi - limb_bits)) hi 0
    done;
    v
  end

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bits.of_hex_string: invalid hex digit"

let of_hex_string ~width s =
  check_width width;
  let v = zero width in
  let pos = ref 0 in
  (* Iterate characters from the end of the string: least significant
     nibble first. *)
  for i = String.length s - 1 downto 0 do
    let c = s.[i] in
    if c <> '_' then begin
      let d = hex_digit c in
      for b = 0 to 3 do
        if d lsr b land 1 = 1 then begin
          let bit = !pos + b in
          if bit >= width then
            invalid_arg "Bits.of_hex_string: value wider than requested width";
          let j = bit / limb_bits and k = bit mod limb_bits in
          v.limbs.(j) <- v.limbs.(j) lor (1 lsl k)
        end
      done;
      pos := !pos + 4
    end
  done;
  v

let to_int v =
  let n = Array.length v.limbs in
  if n > 2 then begin
    for i = 2 to n - 1 do
      if v.limbs.(i) <> 0 then failwith "Bits.to_int: value too wide"
    done
  end;
  let lo = v.limbs.(0) in
  let hi = if n > 1 then v.limbs.(1) else 0 in
  if hi lsr 30 <> 0 then failwith "Bits.to_int: value too wide";
  lo lor (hi lsl limb_bits)

let to_int64 v =
  let n = Array.length v.limbs in
  for i = 2 to n - 1 do
    if v.limbs.(i) <> 0 then failwith "Bits.to_int64: value too wide"
  done;
  let lo = Int64.of_int v.limbs.(0) in
  let hi = if n > 1 then Int64.of_int v.limbs.(1) else 0L in
  Int64.logor lo (Int64.shift_left hi 32)

let to_binary_string v =
  String.init v.width (fun i -> if get v (v.width - 1 - i) then '1' else '0')

let to_hex_string v =
  let ndigits = (v.width + 3) / 4 in
  String.init ndigits (fun i ->
      let nib = ndigits - 1 - i in
      let d = ref 0 in
      for b = 0 to 3 do
        let bit = (nib * 4) + b in
        if bit < v.width && get v bit then d := !d lor (1 lsl b)
      done;
      "0123456789abcdef".[!d])

(* Bit count of a 32-bit limb, in registers (SWAR): pairs, nibbles,
   bytes, then a multiply sums the four bytes into the top one. It sits
   on the hot paths of the power reference's switching activity and of
   the sample trackers' input Hamming distances. *)
let popcount_limb limb =
  let x = limb - ((limb lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

let popcount v =
  let acc = ref 0 in
  Array.iter (fun limb -> acc := !acc + popcount_limb limb) v.limbs;
  !acc

let is_zero v = Array.for_all (fun l -> l = 0) v.limbs

let check_same_width op a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bits.%s: width mismatch (%d vs %d)" op a.width b.width)

let map2 op a b =
  { width = a.width; limbs = Array.map2 op a.limbs b.limbs }

let logand a b = check_same_width "logand" a b; map2 (land) a b
let logor a b = check_same_width "logor" a b; map2 (lor) a b
let logxor a b = check_same_width "logxor" a b; map2 (lxor) a b

let lognot a =
  normalize { width = a.width; limbs = Array.map (fun l -> lnot l land limb_mask) a.limbs }

let add a b =
  check_same_width "add" a b;
  let v = zero a.width in
  let carry = ref 0 in
  for i = 0 to Array.length v.limbs - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    v.limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize v

let sub a b =
  check_same_width "sub" a b;
  let v = zero a.width in
  let borrow = ref 0 in
  for i = 0 to Array.length v.limbs - 1 do
    let s = a.limbs.(i) - b.limbs.(i) - !borrow in
    if s < 0 then begin v.limbs.(i) <- s + (1 lsl limb_bits); borrow := 1 end
    else begin v.limbs.(i) <- s; borrow := 0 end
  done;
  normalize v

let mul a b =
  check_same_width "mul" a b;
  let n = Array.length a.limbs in
  let v = zero a.width in
  (* Schoolbook with 16-bit half-limbs so partial products fit in an int. *)
  let halves x = [| x land 0xFFFF; x lsr 16 |] in
  let acc = Array.make (2 * n * 2) 0 in
  for i = 0 to n - 1 do
    let ah = halves a.limbs.(i) in
    for j = 0 to n - 1 do
      let bh = halves b.limbs.(j) in
      for p = 0 to 1 do
        for q = 0 to 1 do
          let pos = (2 * i) + p + (2 * j) + q in
          if pos < Array.length acc then acc.(pos) <- acc.(pos) + (ah.(p) * bh.(q))
        done
      done
    done
  done;
  (* Carry-propagate the 16-bit columns, then pack into 32-bit limbs. *)
  let carry = ref 0 in
  for k = 0 to Array.length acc - 1 do
    let s = acc.(k) + !carry in
    acc.(k) <- s land 0xFFFF;
    carry := s lsr 16
  done;
  for i = 0 to n - 1 do
    v.limbs.(i) <- acc.(2 * i) lor (acc.((2 * i) + 1) lsl 16)
  done;
  normalize v

let shift_left v k =
  if k < 0 then invalid_arg "Bits.shift_left: negative shift";
  if k = 0 then v
  else if k >= v.width then zero v.width
  else init ~width:v.width (fun i -> i >= k && get v (i - k))

let shift_right v k =
  if k < 0 then invalid_arg "Bits.shift_right: negative shift";
  if k = 0 then v
  else if k >= v.width then zero v.width
  else init ~width:v.width (fun i -> i + k < v.width && get v (i + k))

let rotate_left v k =
  let k = ((k mod v.width) + v.width) mod v.width in
  if k = 0 then v else init ~width:v.width (fun i -> get v (((i - k) mod v.width + v.width) mod v.width))

let rotate_right v k = rotate_left v (-k)

let slice v ~hi ~lo =
  if lo < 0 || hi >= v.width || hi < lo then
    invalid_arg (Printf.sprintf "Bits.slice: bad range [%d:%d] of width %d" hi lo v.width);
  init ~width:(hi - lo + 1) (fun i -> get v (lo + i))

let concat hi lo =
  init ~width:(hi.width + lo.width) (fun i ->
      if i < lo.width then get lo i else get hi (i - lo.width))

let concat_list = function
  | [] -> invalid_arg "Bits.concat_list: empty list"
  | v :: vs -> List.fold_left (fun acc x -> concat acc x) v vs

let rec limbs_equal a b i =
  i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && limbs_equal a b (i - 1))

(* Equal widths imply equal limb counts. *)
let equal a b =
  a == b || (a.width = b.width && limbs_equal a.limbs b.limbs (Array.length a.limbs - 1))

(* Unsigned magnitude comparison from limb [i] down, most significant
   first; top-level, so no closure is built per comparison (the sample
   trackers evaluate ordering atoms on every changed sample). *)
let rec compare_limbs a b i =
  if i < 0 then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_limbs a b (i - 1)

let compare a b =
  let c = Int.compare a.width b.width in
  if c <> 0 then c else compare_limbs a.limbs b.limbs (Array.length a.limbs - 1)

let ult a b =
  check_same_width "ult" a b;
  compare a b < 0

(* Limb by limb, with no intermediate vector: the sample trackers call
   this on every changed sample. *)
let hamming_distance a b =
  check_same_width "hamming_distance" a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.limbs - 1 do
    acc := !acc + popcount_limb (Array.unsafe_get a.limbs i lxor Array.unsafe_get b.limbs i)
  done;
  !acc

(* Width and limbs folded by multiply-xorshift steps, then a final
   mix so that small values spread over the low bits an open-addressing
   table masks with. Allocates nothing. *)
let hash v =
  let h = ref (v.width * 0x2545F491) in
  for i = 0 to Array.length v.limbs - 1 do
    let x = (!h lxor Array.unsafe_get v.limbs i) * 0x5BD1E995 in
    h := x lxor (x lsr 29)
  done;
  let x = !h * 0x9E3779B97F4A7C1 in
  (x lxor (x lsr 32)) land max_int

let pp fmt v = Format.fprintf fmt "%d'h%s" v.width (to_hex_string v)
let pp_binary fmt v = Format.fprintf fmt "%d'b%s" v.width (to_binary_string v)
