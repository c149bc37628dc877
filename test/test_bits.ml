(* Unit and property tests for Psm_bits.Bits. *)

module Bits = Psm_bits.Bits

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let bits_testable = Alcotest.testable Bits.pp Bits.equal

(* ---------- unit tests ---------- *)

let test_zero_ones () =
  check_int "zero popcount" 0 (Bits.popcount (Bits.zero 100));
  check_int "ones popcount" 100 (Bits.popcount (Bits.ones 100));
  check "zero is_zero" true (Bits.is_zero (Bits.zero 7));
  check "ones not is_zero" false (Bits.is_zero (Bits.ones 7))

let test_of_int_roundtrip () =
  List.iter
    (fun n -> check_int (string_of_int n) n (Bits.to_int (Bits.of_int ~width:20 n)))
    [ 0; 1; 2; 1023; 524287; 1048575 ]

let test_of_int64_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check int64)
        (Int64.to_string n) n
        (Bits.to_int64 (Bits.of_int64 ~width:64 n)))
    [ 0L; 1L; 0xFFFFFFFFFFFFFFFFL; 0x8000000000000000L; 0x0123456789ABCDEFL ]

let test_width_masking () =
  (* of_int keeps only the low bits. *)
  check_int "mask" 5 (Bits.to_int (Bits.of_int ~width:3 0xFD))

let test_hex_string () =
  let v = Bits.of_hex_string ~width:16 "beef" in
  check_string "hex" "beef" (Bits.to_hex_string v);
  check_int "value" 0xBEEF (Bits.to_int v);
  let v = Bits.of_hex_string ~width:128 "000102030405060708090a0b0c0d0e0f" in
  check_string "wide hex" "000102030405060708090a0b0c0d0e0f" (Bits.to_hex_string v)

let test_hex_rejects_overflow () =
  Alcotest.check_raises "too wide" (Invalid_argument
    "Bits.of_hex_string: value wider than requested width")
    (fun () -> ignore (Bits.of_hex_string ~width:4 "1f"))

let test_binary_string () =
  let v = Bits.of_binary_string "1010_0110" in
  check_int "width" 8 (Bits.width v);
  check_int "value" 0xA6 (Bits.to_int v);
  check_string "rendering" "10100110" (Bits.to_binary_string v)

let test_get_set () =
  let v = Bits.zero 40 in
  let v = Bits.set v 39 true in
  check "bit 39" true (Bits.get v 39);
  check "bit 38" false (Bits.get v 38);
  let v = Bits.set v 39 false in
  check "cleared" true (Bits.is_zero v)

let test_arithmetic () =
  let a = Bits.of_int ~width:8 200 and b = Bits.of_int ~width:8 100 in
  check_int "add wraps" 44 (Bits.to_int (Bits.add a b));
  check_int "sub" 100 (Bits.to_int (Bits.sub a b));
  check_int "sub wraps" 156 (Bits.to_int (Bits.sub b a));
  check_int "mul wraps" ((200 * 100) mod 256) (Bits.to_int (Bits.mul a b))

let test_wide_arithmetic () =
  let a = Bits.of_hex_string ~width:128 "ffffffffffffffffffffffffffffffff" in
  let one = Bits.of_int ~width:128 1 in
  check "all-ones + 1 = 0" true (Bits.is_zero (Bits.add a one));
  check "0 - 1 = all-ones" true (Bits.equal a (Bits.sub (Bits.zero 128) one))

let test_mul_wide () =
  (* 64-bit multiply checked against Int64 arithmetic on the low bits. *)
  let a = Bits.of_int64 ~width:64 0x123456789ABCDEFL in
  let b = Bits.of_int64 ~width:64 0xFEDCBA987654321L in
  let expect = Int64.mul 0x123456789ABCDEFL 0xFEDCBA987654321L in
  Alcotest.(check int64) "low 64 bits" expect (Bits.to_int64 (Bits.mul a b))

let test_logic () =
  let a = Bits.of_int ~width:8 0b1100_1010 and b = Bits.of_int ~width:8 0b1010_0110 in
  check_int "and" 0b1000_0010 (Bits.to_int (Bits.logand a b));
  check_int "or" 0b1110_1110 (Bits.to_int (Bits.logor a b));
  check_int "xor" 0b0110_1100 (Bits.to_int (Bits.logxor a b));
  check_int "not" 0b0011_0101 (Bits.to_int (Bits.lognot a))

let test_shifts () =
  let v = Bits.of_int ~width:8 0b0001_1000 in
  check_int "shl" 0b0110_0000 (Bits.to_int (Bits.shift_left v 2));
  check_int "shr" 0b0000_0110 (Bits.to_int (Bits.shift_right v 2));
  check_int "shl overflow drops" 0 (Bits.to_int (Bits.shift_left v 8));
  check_int "rotl" 0b1000_0001 (Bits.to_int (Bits.rotate_left v 4));
  check_int "rotr == rotl(-n)" (Bits.to_int (Bits.rotate_right v 3))
    (Bits.to_int (Bits.rotate_left v (-3)))

let test_slice_concat () =
  let v = Bits.of_int ~width:12 0xABC in
  check_int "slice hi" 0xA (Bits.to_int (Bits.slice v ~hi:11 ~lo:8));
  check_int "slice mid" 0xB (Bits.to_int (Bits.slice v ~hi:7 ~lo:4));
  let rebuilt =
    Bits.concat_list
      [ Bits.slice v ~hi:11 ~lo:8; Bits.slice v ~hi:7 ~lo:4; Bits.slice v ~hi:3 ~lo:0 ]
  in
  Alcotest.check bits_testable "concat of slices" v rebuilt

let test_compare () =
  let a = Bits.of_int ~width:8 5 and b = Bits.of_int ~width:8 200 in
  check "ult" true (Bits.ult a b);
  check "not ult" false (Bits.ult b a);
  check "not ult self" false (Bits.ult a a);
  (* compare orders by width first *)
  check "narrower < wider" true (Bits.compare (Bits.ones 4) (Bits.zero 5) < 0)

let test_hamming () =
  let a = Bits.of_int ~width:16 0xFF00 and b = Bits.of_int ~width:16 0x0FF0 in
  check_int "hamming" 8 (Bits.hamming_distance a b);
  check_int "self" 0 (Bits.hamming_distance a a)

let test_width_mismatch_raises () =
  let a = Bits.zero 8 and b = Bits.zero 9 in
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument (Printf.sprintf "Bits.%s: width mismatch (8 vs 9)" name))
        (fun () -> ignore (f a b)))
    [ ("logand", Bits.logand); ("logor", Bits.logor); ("logxor", Bits.logxor);
      ("add", Bits.add); ("sub", Bits.sub); ("mul", Bits.mul) ]

let test_pp () =
  check_string "pp hex" "8'h3a" (Format.asprintf "%a" Bits.pp (Bits.of_int ~width:8 0x3A));
  check_string "pp bin" "4'b1010"
    (Format.asprintf "%a" Bits.pp_binary (Bits.of_int ~width:4 0xA))

(* ---------- properties ---------- *)

let gen_bits width =
  QCheck.Gen.(
    map
      (fun l -> Bits.init ~width (fun i -> List.nth l i))
      (list_size (return width) bool))

let arb_bits width =
  QCheck.make ~print:(fun v -> Format.asprintf "%a" Bits.pp v) (gen_bits width)

let arb_pair width = QCheck.pair (arb_bits width) (arb_bits width)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name arb f)

let properties =
  [ prop "xor involution" (arb_pair 70) (fun (a, b) ->
        Bits.equal a (Bits.logxor (Bits.logxor a b) b));
    prop "add/sub inverse" (arb_pair 70) (fun (a, b) ->
        Bits.equal a (Bits.sub (Bits.add a b) b));
    prop "not involution" (arb_bits 70) (fun a -> Bits.equal a (Bits.lognot (Bits.lognot a)));
    prop "hamming = popcount xor" (arb_pair 70) (fun (a, b) ->
        Bits.hamming_distance a b = Bits.popcount (Bits.logxor a b));
    prop "hamming triangle inequality" (QCheck.triple (arb_bits 48) (arb_bits 48) (arb_bits 48))
      (fun (a, b, c) ->
        Bits.hamming_distance a c
        <= Bits.hamming_distance a b + Bits.hamming_distance b c);
    prop "hex roundtrip" (arb_bits 75) (fun a ->
        Bits.equal a (Bits.of_hex_string ~width:75 (Bits.to_hex_string a)));
    prop "binary roundtrip" (arb_bits 67) (fun a ->
        Bits.equal a (Bits.of_binary_string (Bits.to_binary_string a)));
    prop "rotate composition" (QCheck.pair (arb_bits 33) QCheck.small_nat) (fun (a, n) ->
        Bits.equal (Bits.rotate_left a (n mod 33))
          (Bits.rotate_right a (33 - (n mod 33))));
    prop "shift_left then right loses low bits only" (arb_bits 40) (fun a ->
        let back = Bits.shift_right (Bits.shift_left a 5) 5 in
        Bits.equal (Bits.slice back ~hi:34 ~lo:0) (Bits.slice a ~hi:34 ~lo:0));
    prop "concat slices identity" (arb_bits 41) (fun a ->
        Bits.equal a
          (Bits.concat (Bits.slice a ~hi:40 ~lo:17) (Bits.slice a ~hi:16 ~lo:0)));
    prop "compare total order consistent with equal" (arb_pair 50) (fun (a, b) ->
        Bits.equal a b = (Bits.compare a b = 0));
    prop "mul commutative" (arb_pair 64) (fun (a, b) ->
        Bits.equal (Bits.mul a b) (Bits.mul b a));
    prop "add commutative" (arb_pair 96) (fun (a, b) ->
        Bits.equal (Bits.add a b) (Bits.add b a));
    (* The word-at-a-time decoder against the character reader: digit
       spans of every length up to 130 at any offset inside noise, read
       into a wider vector, and one bad character anywhere rejected. *)
    prop "of_binary_sub = of_binary_string on the span"
      QCheck.(quad (int_range 1 130) (int_range 0 9) (int_range 0 40) (int_bound 1_000_000))
      (fun (len, pre, extra, seed) ->
        let rng = Random.State.make [| seed |] in
        let digits = String.init len (fun _ -> if Random.State.bool rng then '1' else '0') in
        let noise n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
        let s = noise pre ^ digits ^ noise 9 in
        let width = len + extra in
        let v = Bits.of_binary_sub ~width s ~pos:pre ~len in
        let expected = Bits.of_binary_string (String.make extra '0' ^ digits) in
        let bad = Bytes.of_string s in
        Bytes.set bad (pre + Random.State.int rng len) (if Random.State.bool rng then '2' else '/');
        Bits.equal v expected
        && (match
              Bits.of_binary_sub ~width (Bytes.to_string bad) ~pos:pre ~len
            with
           | _ -> false
           | exception Invalid_argument _ -> true));
    prop "mul distributes over add (mod 2^w)"
      (QCheck.triple (arb_bits 32) (arb_bits 32) (arb_bits 32))
      (fun (a, b, c) ->
        Bits.equal (Bits.mul a (Bits.add b c))
          (Bits.add (Bits.mul a b) (Bits.mul a c))) ]

let suite =
  ( "bits",
    [ Alcotest.test_case "zero/ones" `Quick test_zero_ones;
      Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
      Alcotest.test_case "of_int64 roundtrip" `Quick test_of_int64_roundtrip;
      Alcotest.test_case "width masking" `Quick test_width_masking;
      Alcotest.test_case "hex strings" `Quick test_hex_string;
      Alcotest.test_case "hex overflow rejected" `Quick test_hex_rejects_overflow;
      Alcotest.test_case "binary strings" `Quick test_binary_string;
      Alcotest.test_case "get/set" `Quick test_get_set;
      Alcotest.test_case "arithmetic" `Quick test_arithmetic;
      Alcotest.test_case "wide arithmetic" `Quick test_wide_arithmetic;
      Alcotest.test_case "wide multiply" `Quick test_mul_wide;
      Alcotest.test_case "logic" `Quick test_logic;
      Alcotest.test_case "shifts/rotates" `Quick test_shifts;
      Alcotest.test_case "slice/concat" `Quick test_slice_concat;
      Alcotest.test_case "comparisons" `Quick test_compare;
      Alcotest.test_case "hamming distance" `Quick test_hamming;
      Alcotest.test_case "width mismatch raises" `Quick test_width_mismatch_raises;
      Alcotest.test_case "printing" `Quick test_pp ]
    @ properties )
