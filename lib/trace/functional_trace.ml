module Bits = Psm_bits.Bits

type t = {
  interface : Interface.t;
  samples : Bits.t array array; (* time-major *)
  mutable runs_cache : Runs.t option;
}

(* Explicit recursion: [Array.for_all2] builds a closure per call, and
   the sample trackers compare every sample. *)
let rec same_from a b i =
  i = Array.length a || (Bits.equal a.(i) b.(i) && same_from a b (i + 1))

let same_sample a b = Array.length a = Array.length b && same_from a b 0

(* Explicit recursion: no closure per call on the steppers' hot path. *)
let rec hamming_over a b acc = function
  | [] -> acc
  | i :: rest -> hamming_over a b (acc + Bits.hamming_distance a.(i) b.(i)) rest

let input_hamming inputs a b = hamming_over a b 0 inputs

let check_sample iface sample =
  let n = Interface.arity iface in
  if Array.length sample <> n then
    invalid_arg
      (Printf.sprintf "Functional_trace: sample arity %d, interface arity %d"
         (Array.length sample) n);
  Array.iteri
    (fun i v ->
      let s = Interface.signal iface i in
      if Bits.width v <> s.Signal.width then
        invalid_arg
          (Printf.sprintf
             "Functional_trace: signal %s has width %d, sample value width %d"
             s.Signal.name s.Signal.width (Bits.width v)))
    sample

module Builder = struct
  type trace = t

  type t = {
    iface : Interface.t;
    rows : Bits.t array Column.t;
    (* Run starts, maintained as samples arrive so ingestion yields the
       run structure at zero extra pass. *)
    starts : int Column.t;
  }

  let create iface = { iface; rows = Column.create (); starts = Column.create () }
  let length b = Column.length b.rows

  let adopt b row =
    Column.push b.starts (Column.length b.rows);
    Column.push b.rows row

  let repeat b =
    if length b = 0 then invalid_arg "Functional_trace.Builder.repeat: no sample yet";
    Column.push b.rows (Column.last b.rows)

  let append b sample =
    check_sample b.iface sample;
    if length b = 0 || not (same_sample (Column.last b.rows) sample) then
      Column.push b.starts (length b);
    Column.push b.rows (Array.copy sample)

  let finish b : trace =
    {
      interface = b.iface;
      samples = Column.to_array b.rows;
      runs_cache = Some (Runs.of_starts ~length:(length b) (Column.to_array b.starts));
    }
end

let of_samples iface samples =
  Array.iter (check_sample iface) samples;
  { interface = iface; samples = Array.map Array.copy samples; runs_cache = None }

let interface t = t.interface
let length t = Array.length t.samples

let check_time t time =
  if time < 0 || time >= length t then
    invalid_arg (Printf.sprintf "Functional_trace: instant %d outside [0,%d)" time (length t))

let value t ~time ~signal =
  check_time t time;
  t.samples.(time).(signal)

let value_by_name t ~time name =
  value t ~time ~signal:(Interface.index t.interface name)

let sample t ~time =
  check_time t time;
  Array.copy t.samples.(time)

let iter f t = Array.iteri f t.samples

let runs t =
  match t.runs_cache with
  | Some r -> r
  | None ->
      let r =
        Runs.scan ~equal:(fun i j -> same_sample t.samples.(i) t.samples.(j)) (length t)
      in
      t.runs_cache <- Some r;
      r

let iter_runs f t =
  let r = runs t in
  Runs.iter r (fun ~index:_ ~start ~len -> f ~start ~len t.samples.(start))

let sub t ~start ~stop =
  check_time t start;
  check_time t stop;
  if stop < start then invalid_arg "Functional_trace.sub: stop < start";
  {
    interface = t.interface;
    samples = Array.sub t.samples start (stop - start + 1);
    runs_cache = None;
  }

let append a b =
  if not (Interface.equal a.interface b.interface) then
    invalid_arg "Functional_trace.append: different interfaces";
  { interface = a.interface; samples = Array.append a.samples b.samples; runs_cache = None }

let input_hamming_series t =
  let input_idx = List.map fst (Interface.inputs t.interface) in
  let series = Array.make (length t) 0. in
  (* Consecutive instants of one run carry the same sample: only a run's
     first instant can differ from its predecessor. *)
  Runs.iter (runs t) (fun ~index:_ ~start ~len:_ ->
      if start > 0 then
        series.(start) <-
          float_of_int (input_hamming input_idx t.samples.(start) t.samples.(start - 1)));
  series

let equal a b =
  Interface.equal a.interface b.interface
  && Array.length a.samples = Array.length b.samples
  && Array.for_all2 (fun x y -> Array.for_all2 Bits.equal x y) a.samples b.samples

let pp_summary fmt t =
  Format.fprintf fmt "trace of %d instants over %d signals" (length t)
    (Interface.arity t.interface)
