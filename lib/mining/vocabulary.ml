type t = { interface : Psm_trace.Interface.t; atoms : Atomic.t array }

let create interface atom_list =
  let sorted = List.sort_uniq Atomic.compare atom_list in
  { interface; atoms = Array.of_list sorted }

let interface t = t.interface
let size t = Array.length t.atoms

let atom t i =
  if i < 0 || i >= size t then invalid_arg "Vocabulary.atom: index out of range";
  t.atoms.(i)

let atoms t = Array.copy t.atoms

let eval_sample t sample = Array.map (fun a -> Atomic.eval a sample) t.atoms

let packed_size t = (Array.length t.atoms + 7) / 8

let row_key row =
  let n = Array.length row in
  let bytes = Bytes.make ((n + 7) / 8) '\000' in
  Array.iteri
    (fun i b ->
      if b then
        Bytes.set bytes (i / 8)
          (Char.chr (Char.code (Bytes.get bytes (i / 8)) lor (1 lsl (i mod 8)))))
    row;
  Bytes.unsafe_to_string bytes

let unpack_key t key =
  if String.length key <> packed_size t then
    invalid_arg "Vocabulary.unpack_key: key size mismatch";
  Array.init (Array.length t.atoms) (fun i ->
      Char.code key.[i lsr 3] land (1 lsl (i land 7)) <> 0)

let literals_of_key t key =
  let row = unpack_key t key in
  Array.to_list (Array.mapi (fun i b -> (t.atoms.(i), b)) row)

let pp fmt t =
  Format.fprintf fmt "@[<v>vocabulary of %d atoms:@," (size t);
  Array.iteri
    (fun i a -> Format.fprintf fmt "  a%d: %a@," i (Atomic.pp t.interface) a)
    t.atoms;
  Format.fprintf fmt "@]"
