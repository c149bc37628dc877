(* Per-cycle reference for the run-aware library paths. The library walks
   traces run by run only (mining, interning, the Xu extension, emission
   counting, classification memos); this module recomputes the same
   results one instant at a time from public APIs, and test_rle pins the
   library against it bit for bit:

   - vocabulary: the push miner fed one sample per instant;
   - Γ: one [Table.classify_or_add] per instant;
   - raw chains: the Fig. 5 automaton ([Xu]) walked instant by instant,
     with the paper's end-of-trace extension;
   - emission counts: one count per instant of every state interval;
   - stepper inputs: [Table.classify] per instant and the trace's
     [input_hamming_series].

   Everything downstream of those (simplify, join, optimize, HMM build)
   is the library's own single implementation, so [train] is a complete
   per-cycle counterpart of [Flow.train].

   The streaming trainer accumulates its regression sums in a different
   order than the batch flow, so its floats match [train] only to
   rounding. Its per-cycle reference is the trainer itself on
   [with_toggle] traces, where no run is longer than one instant. *)

module Flow = Psm_flow.Flow
module Bits = Psm_bits.Bits
module Interface = Psm_trace.Interface
module Signal = Psm_trace.Signal
module Functional_trace = Psm_trace.Functional_trace
module Miner = Psm_mining.Miner
module Prop_trace = Psm_mining.Prop_trace
module Table = Psm_mining.Prop_trace.Table
module Psm = Psm_core.Psm
module Xu = Psm_core.Xu
module Power_attr = Psm_core.Power_attr
module Optimize = Psm_core.Optimize
module Hmm = Psm_hmm.Hmm
module Multi_sim = Psm_hmm.Multi_sim

let miner ?(config = Miner.default) traces =
  let inc = Miner.Incremental.create ~config (Functional_trace.interface (List.hd traces)) in
  List.iter
    (fun trace ->
      Functional_trace.iter (fun _ sample -> Miner.Incremental.observe inc sample) trace;
      Miner.Incremental.end_trace inc)
    traces;
  inc

let candidate_stats traces = Miner.Incremental.candidate_stats (miner traces)
let vocabulary ?config traces = Miner.Incremental.vocabulary (miner ?config traces)

let gamma_ids table trace =
  Array.init (Functional_trace.length trace) (fun time ->
      Table.classify_or_add table (Functional_trace.sample trace ~time))

(* ⟨pattern, start, stop⟩ triplets of one Γ, trailing instants attributed
   as Generator documents: a single trailing instant extends the last
   pattern, a longer trailing run becomes an absorbing [Until (p, p)], and
   a trace with no complete pattern is one absorbing state. *)
let triplets gamma =
  let xu = Xu.initialize gamma in
  let rec collect acc =
    match Xu.get_assertion xu with Some t -> collect (t :: acc) | None -> List.rev acc
  in
  let found = collect [] in
  match (Xu.trailing_stop xu, List.rev found) with
  | None, _ -> found
  | Some stop, ((pat, start, last_stop) :: earlier as all) ->
      let tail_start = last_stop + 1 in
      if stop = tail_start then List.rev ((pat, start, stop) :: earlier)
      else
        let p = Prop_trace.prop_at gamma tail_start in
        List.rev ((Xu.Until (p, p), tail_start, stop) :: all)
  | Some stop, [] ->
      let p = Prop_trace.prop_at gamma 0 in
      [ (Xu.Until (p, p), 0, stop) ]

let chain psm ~trace gamma delta =
  let add (psm, prev) (pattern, start, stop) =
    let attr = Power_attr.of_interval delta ~trace ~start ~stop in
    let psm, id = Psm.add_state psm (Psm_core.Generator.assertion_of_pattern pattern) attr in
    let psm =
      match prev with
      | None -> Psm.add_initial psm id
      | Some src ->
          let guard = match pattern with Xu.Until (p, _) | Xu.Next (p, _) -> p in
          Psm.add_transition psm ~src ~guard ~dst:id
    in
    (psm, Some id)
  in
  fst (List.fold_left add (psm, None) (triplets gamma))

let count_into tbl key n =
  Hashtbl.replace tbl key (n +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let sorted_counts tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let emission_counts (gammas : int array array) optimized =
  List.concat_map
    (fun (s : Psm.state) ->
      let per_prop = Hashtbl.create 8 in
      List.iter
        (fun (iv : Power_attr.interval) ->
          for t = iv.Power_attr.start to iv.Power_attr.stop do
            count_into per_prop gammas.(iv.Power_attr.trace).(t) 1.
          done)
        s.Psm.attr.Power_attr.intervals;
      Hashtbl.fold (fun p c acc -> ((s.Psm.id, p), c) :: acc) per_prop [])
    (Psm.states optimized)
  |> List.sort compare

type model = {
  table : Table.t;
  gammas : int array array;
  raw : Psm.t;
  optimized : Psm.t;
  optimize_reports : Optimize.report list;
  hmm : Hmm.t;
  transition_counts : ((int * int) * float) list;
  emission_counts : ((int * int) * float) list;
}

let train ?(config = Flow.default) ~traces ~powers () =
  let table = Table.create (vocabulary ~config:config.Flow.miner traces) in
  let gammas = List.map (gamma_ids table) traces in
  (* The Xu automaton reads Γ through a [Prop_trace.t]; every row is
     already interned, so this handle only looks rows up, and test_rle
     checks its ids against [gammas]. *)
  let handles = List.map (Prop_trace.of_functional table) traces in
  let raw =
    List.fold_left
      (fun (psm, idx) (gamma, delta) -> (chain psm ~trace:idx gamma delta, idx + 1))
      (Psm.empty table, 0)
      (List.combine handles powers)
    |> fst
  in
  let simplified, simplify_map = Psm_core.Simplify.simplify_traced ~config:config.Flow.merge raw in
  let joined, join_map = Psm_core.Join.join_traced ~config:config.Flow.merge simplified in
  let optimized, optimize_reports =
    Optimize.optimize ~config:config.Flow.optimize ~traces:(Array.of_list traces)
      ~powers:(Array.of_list powers) joined
  in
  let final id = join_map (simplify_map id) in
  let edges = Hashtbl.create 64 in
  List.iter
    (fun (tr : Psm.transition) -> count_into edges (final tr.Psm.src, final tr.Psm.dst) 1.)
    (Psm.transitions raw);
  let transition_counts = sorted_counts edges in
  let gammas = Array.of_list gammas in
  let emission_counts = emission_counts gammas optimized in
  { table;
    gammas;
    raw;
    optimized;
    optimize_reports;
    hmm = Hmm.build ~transition_counts ~emission_counts optimized;
    transition_counts;
    emission_counts }

(* What a stepper is fed for each instant of [trace]: the classification
   and the input Hamming distance to the previous instant. *)
let observations table trace =
  let hd = Functional_trace.input_hamming_series trace in
  Array.init (Functional_trace.length trace) (fun time ->
      (Table.classify table (Functional_trace.sample trace ~time), hd.(time)))

let simulate hmm trace =
  let stepper = Multi_sim.Stepper.create hmm in
  let table = Psm.prop_table (Hmm.psm hmm) in
  let steps =
    Array.map
      (fun (obs, hamming) ->
        Multi_sim.Stepper.advance stepper ~hamming (Option.value obs ~default:(-1));
        (Multi_sim.Stepper.power stepper, Multi_sim.Stepper.state stepper))
      (observations table trace)
  in
  (steps, Multi_sim.Stepper.wrong_instants stepper)

(* [trace] plus one output bit that toggles every instant. No two adjacent
   samples are equal, so every run-aware shortcut takes its one-instant
   case. The toggle never reaches the model: its runs (one instant) are
   shorter than the miner's minimum mean run, and it is no input, so
   classification and input Hamming distances are unchanged. *)
let with_toggle trace =
  let iface = Functional_trace.interface trace in
  let toggled =
    Interface.create
      (Array.to_list (Interface.signals iface) @ [ Signal.output "per_cycle_toggle" 1 ])
  in
  Functional_trace.of_samples toggled
    (Array.init (Functional_trace.length trace) (fun time ->
         Array.append
           (Functional_trace.sample trace ~time)
           [| Bits.of_int ~width:1 (time land 1) |]))
