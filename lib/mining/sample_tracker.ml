module Bits = Psm_bits.Bits
module Functional_trace = Psm_trace.Functional_trace
module Interface = Psm_trace.Interface

type t = {
  table : Prop_trace.Table.t;
  is_input : bool array; (* per signal: a primary input *)
  prev : Bits.t array; (* the previous sample, overwritten in place *)
  mutable started : bool; (* [prev] holds a sample *)
  mutable code : int; (* [Table.code] of [prev] *)
  mutable distance : int; (* input Hamming distance of [prev] to its predecessor *)
}

let interface table = Vocabulary.interface (Prop_trace.Table.vocabulary table)

let create table =
  let iface = interface table in
  let is_input = Array.make (Interface.arity iface) false in
  List.iter (fun (i, _) -> is_input.(i) <- true) (Interface.inputs iface);
  { table;
    is_input;
    prev = Array.make (Interface.arity iface) (Bits.zero 1);
    started = false;
    code = -1;
    distance = 0 }

(* [Bits.t] is immutable, so copying the sample's elements keeps it. *)
let accept t sample =
  Array.blit sample 0 t.prev 0 (Array.length t.prev);
  t.started <- true;
  t.code <- Prop_trace.Table.code t.table sample

(* One pass over the signals decides both whether [sample] differs from
   [prev] and its input Hamming distance: a signal holding the same
   physical value is equal, and an input's distance is 0 exactly when
   its values are equal. Only a sample that differs is stored and
   classified. *)
let observe t sample =
  let prev = t.prev in
  let n = Array.length prev in
  if Array.length sample <> n then
    invalid_arg "Sample_tracker.observe: sample arity differs from the interface";
  if not t.started then begin
    t.distance <- 0;
    accept t sample
  end
  else begin
    let differs = ref false and distance = ref 0 in
    for i = 0 to n - 1 do
      let a = Array.unsafe_get prev i and b = Array.unsafe_get sample i in
      if a != b then
        if Array.unsafe_get t.is_input i then begin
          let d = Bits.hamming_distance a b in
          if d > 0 then begin
            differs := true;
            distance := !distance + d
          end
        end
        else if not (Bits.equal a b) then differs := true
    done;
    t.distance <- !distance;
    if !differs then begin
      for i = 0 to n - 1 do
        let b = Array.unsafe_get sample i in
        if Array.unsafe_get prev i != b then Array.unsafe_set prev i b
      done;
      t.code <- Prop_trace.Table.code t.table sample
    end
  end

let reset t =
  t.started <- false;
  t.code <- -1;
  t.distance <- 0

let code t = t.code
let distance t = t.distance
let hamming t = float_of_int t.distance

let iter_runs table trace f =
  let t = create table in
  Functional_trace.iter_runs
    (fun ~start ~len sample ->
      observe t sample;
      f ~start ~len ~code:t.code ~distance:t.distance)
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
