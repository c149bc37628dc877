module Bits = Psm_bits.Bits
module Functional_trace = Psm_trace.Functional_trace
module Interface = Psm_trace.Interface

type t = {
  table : Prop_trace.Table.t;
  inputs : int list;
  prev : Bits.t array; (* the previous sample, overwritten in place *)
  mutable started : bool; (* [prev] holds a sample *)
  mutable code : int; (* [Table.code] of [prev] *)
  mutable distance : int; (* input Hamming distance of [prev] to its predecessor *)
}

let interface table = Vocabulary.interface (Prop_trace.Table.vocabulary table)

let create table =
  let iface = interface table in
  { table;
    inputs = List.map fst (Interface.inputs iface);
    prev = Array.make (Interface.arity iface) (Bits.zero 1);
    started = false;
    code = -1;
    distance = 0 }

(* [Bits.t] is immutable, so copying the sample's elements keeps it. *)
let accept t sample =
  Array.blit sample 0 t.prev 0 (Array.length t.prev);
  t.started <- true;
  t.code <- Prop_trace.Table.code t.table sample

let observe t sample =
  if Array.length sample <> Array.length t.prev then
    invalid_arg "Sample_tracker.observe: sample arity differs from the interface";
  if not t.started then begin
    t.distance <- 0;
    accept t sample
  end
  else if not (Functional_trace.same_sample t.prev sample) then begin
    t.distance <- Functional_trace.input_hamming t.inputs sample t.prev;
    accept t sample
  end
  else t.distance <- 0

let code t = t.code
let hamming t = float_of_int t.distance

let iter_runs table trace f =
  let t = create table in
  Functional_trace.iter_runs
    (fun ~start ~len sample ->
      observe t sample;
      f ~start ~len ~code:t.code ~hamming:(hamming t))
    trace

let export t = if t.started then Some (Array.map Bits.to_binary_string t.prev) else None

let decode t strs =
  let iface = interface t.table in
  let arity = Interface.arity iface in
  if Array.length strs <> arity then
    Error
      (Printf.sprintf "previous sample has %d signals, interface has %d"
         (Array.length strs) arity)
  else
    try
      Ok
        (Array.mapi
           (fun i s ->
             let b = Bits.of_binary_string s in
             let w = (Interface.signal iface i).Psm_trace.Signal.width in
             if Bits.width b <> w then
               failwith
                 (Printf.sprintf "previous sample signal %d is %d bits wide, expected %d" i
                    (Bits.width b) w);
             b)
           strs)
    with
    | Failure msg -> Error msg
    | Invalid_argument _ -> Error "previous sample is not a bit string"

let restore t = function
  | None ->
      t.started <- false;
      t.code <- -1;
      Ok ()
  | Some strs -> (
      match decode t strs with
      | Error _ as e -> e
      | Ok sample ->
          accept t sample;
          Ok ())
