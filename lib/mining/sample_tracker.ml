module Bits = Psm_bits.Bits
module Functional_trace = Psm_trace.Functional_trace
module Interface = Psm_trace.Interface

type t = {
  table : Prop_trace.Table.t;
  inputs : int list;
  mutable prev : Bits.t array option; (* private copy *)
  mutable obs : int option; (* classification of [prev] *)
  mutable hamming : float;
}

let interface table = Vocabulary.interface (Prop_trace.Table.vocabulary table)

let create table =
  { table;
    inputs = List.map fst (Interface.inputs (interface table));
    prev = None;
    obs = None;
    hamming = 0. }

let observe t sample =
  match t.prev with
  | Some prev when Functional_trace.same_sample prev sample -> t.hamming <- 0.
  | prev ->
      t.hamming <-
        (match prev with
        | None -> 0.
        | Some prev -> float_of_int (Functional_trace.input_hamming t.inputs sample prev));
      t.prev <- Some (Array.copy sample);
      t.obs <- Prop_trace.Table.classify t.table sample

let hamming t = t.hamming
let classification t = t.obs

let export t = Option.map (Array.map Bits.to_binary_string) t.prev

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
      t.prev <- None;
      t.obs <- None;
      Ok ()
  | Some strs -> (
      match decode t strs with
      | Error _ as e -> e
      | Ok sample ->
          t.prev <- Some sample;
          t.obs <- Prop_trace.Table.classify t.table sample;
          Ok ())
