module Bits = Psm_bits.Bits
module Functional_trace = Psm_trace.Functional_trace
module Interface = Psm_trace.Interface
module Signal = Psm_trace.Signal

type config = {
  min_support : float;
  min_mean_run : float;
  max_consts_per_signal : int;
  max_short_run_fraction : float;
  max_const_signal_width : int;
  mine_pairs : bool;
  max_pair_signal_width : int;
}

let default =
  { min_support = 0.01;
    min_mean_run = 4.0;
    max_consts_per_signal = 4;
    max_short_run_fraction = 0.25;
    max_const_signal_width = 32;
    mine_pairs = true;
    max_pair_signal_width = 64 }

type atom_stats = {
  atom : Atomic.t;
  support : float;
  mean_run : float;
  occurrences : int;
  runs : int;
  short_runs : int;
}

let check_traces traces =
  match traces with
  | [] -> invalid_arg "Miner: no training traces"
  | first :: rest ->
      let iface = Functional_trace.interface first in
      List.iter
        (fun t ->
          if not (Interface.equal (Functional_trace.interface t) iface) then
            invalid_arg "Miner: traces with different interfaces")
        rest;
      iface

(* Occurrence and run counting for one signal's values, with periodic
   pruning of hapax values so wide random buses cannot blow up memory. *)
module Value_counter = struct
  type cell = {
    mutable occ : int;
    mutable runs : int;
    mutable short_runs : int;
    mutable run_len : int;
    mutable last : int;
  }

  type t = {
    table : (Bits.t, cell) Hashtbl.t;
    short_below : int;
    prune_at : int;
  }

  let create ?(prune_at = 100_000) ~short_below () =
    { table = Hashtbl.create 256; short_below; prune_at }

  let observe t time v =
    (match Hashtbl.find_opt t.table v with
    | Some c ->
        c.occ <- c.occ + 1;
        if c.last <> time - 1 then begin
          if c.run_len < t.short_below then c.short_runs <- c.short_runs + 1;
          c.runs <- c.runs + 1;
          c.run_len <- 1
        end
        else c.run_len <- c.run_len + 1;
        c.last <- time
    | None ->
        Hashtbl.add t.table v { occ = 1; runs = 1; short_runs = 0; run_len = 1; last = time });
    if Hashtbl.length t.table > t.prune_at then begin
      (* Values seen once so far can never dominate a long trace; dropping
         them only risks losing atoms far below any sane support level. *)
      let doomed =
        Hashtbl.fold (fun v c acc -> if c.occ <= 1 then v :: acc else acc) t.table []
      in
      List.iter (Hashtbl.remove t.table) doomed
    end

  (* [observe_run t time v len]: the signal held [v] over the [len]
     instants [time, time + len). Exact w.r.t. [len] successive
     [observe] calls: the first cycle goes through [observe] (including
     its prune), and the remaining [len - 1] cycles only ever extend the
     just-touched cell's run — occ, run_len and last advance by bulk
     arithmetic, and the reference's per-cycle prune checks in that
     stretch are no-ops (no new hapax cell appears between them). When
     the table is beyond [prune_at], or the first observe's prune evicted
     [v] itself, fall back to the literal per-cycle loop. *)
  let observe_run t time v len =
    if len = 1 then observe t time v
    else begin
      observe t time v;
      if Hashtbl.length t.table <= t.prune_at then
        match Hashtbl.find_opt t.table v with
        | Some c when c.last = time ->
            c.occ <- c.occ + len - 1;
            c.run_len <- c.run_len + len - 1;
            c.last <- time + len - 1
        | _ ->
            for i = 1 to len - 1 do
              observe t (time + i) v
            done
      else
        for i = 1 to len - 1 do
          observe t (time + i) v
        done
    end

  let fold f t init =
    (* Each value's final run is still open; close it into a snapshot
       cell rather than mutating the live one, so folding is reentrant
       (folding twice gives identical results) and observation may
       continue correctly afterwards. *)
    Hashtbl.fold
      (fun v c acc ->
        let short_runs =
          if c.run_len < t.short_below then c.short_runs + 1 else c.short_runs
        in
        f v { c with short_runs } acc)
      t.table init
end

let stats_of ~total atom occ runs short_runs =
  { atom;
    support = float_of_int occ /. float_of_int total;
    mean_run = (if runs = 0 then 0. else float_of_int occ /. float_of_int runs);
    occurrences = occ;
    runs;
    short_runs }

let narrow_signal config iface s =
  (Interface.signal iface s).Signal.width <= config.max_const_signal_width

let short_below_of config = int_of_float (ceil config.min_mean_run)

(* Candidate extraction from finished per-signal counters. The fold
   order (and hence the candidate list order) is a function of the
   observation sequence only, so any path that feeds the counters the
   same samples in the same order yields the same list. *)
let consts_of_counters ~total counters =
  let candidates = ref [] in
  Array.iteri
    (fun s counter ->
      Value_counter.fold
        (fun v (c : Value_counter.cell) () ->
          candidates :=
            stats_of ~total (Atomic.eq_const s v) c.occ c.runs c.short_runs :: !candidates)
        counter ())
    counters;
  !candidates

(* Mutable run accumulator mirroring [predicate_stats]'s counters, one per
   atom, so a single trace pass can score many atoms at once. *)
module Run_acc = struct
  type t = {
    mutable occ : int;
    mutable runs : int;
    mutable short_runs : int;
    mutable run_len : int;
    mutable prev : bool;
  }

  let create () = { occ = 0; runs = 0; short_runs = 0; run_len = 0; prev = false }

  let close_pending ~short_below a =
    if a.run_len > 0 && a.run_len < short_below then a.short_runs <- a.short_runs + 1

  let step ~short_below a holds =
    if holds then begin
      a.occ <- a.occ + 1;
      if a.prev then a.run_len <- a.run_len + 1
      else begin
        close_pending ~short_below a;
        a.runs <- a.runs + 1;
        a.run_len <- 1
      end
    end;
    a.prev <- holds

  (* [len] successive [step]s with the same truth value, collapsed to
     bulk arithmetic. Exact: a true stretch extends (or opens, closing
     any pending short run) one run by [len]; a false stretch only
     clears [prev] — short-run closing stays lazy, as in [step]. *)
  let step_run ~short_below a holds len =
    if len = 1 then step ~short_below a holds
    else if holds then begin
      a.occ <- a.occ + len;
      if a.prev then a.run_len <- a.run_len + len
      else begin
        close_pending ~short_below a;
        a.runs <- a.runs + 1;
        a.run_len <- len
      end;
      a.prev <- true
    end
    else a.prev <- false

  (* Trace boundary: an open run ends here and must not bridge traces. *)
  let boundary ~short_below a =
    if a.prev then begin
      close_pending ~short_below a;
      a.run_len <- 0;
      a.prev <- false
    end
end

(* ⟨=, <, >⟩ stats per pair, in pair order. *)
let pair_stats_list ~total (pairs : (int * int) array) eqs lts gts =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun j (a, b) ->
            List.map
              (fun (cmp, (acc : Run_acc.t)) ->
                stats_of ~total (Atomic.compare_signals cmp a b) acc.Run_acc.occ
                  acc.Run_acc.runs acc.Run_acc.short_runs)
              [ (Atomic.Eq, eqs.(j)); (Atomic.Lt, lts.(j)); (Atomic.Gt, gts.(j)) ])
          pairs))

let signal_pairs config iface =
  let signals = Interface.signals iface in
  let pairs = ref [] in
  Array.iteri
    (fun a (sa : Signal.t) ->
      Array.iteri
        (fun b (sb : Signal.t) ->
          if a < b && sa.width = sb.width && sa.width > 1
             && sa.width <= config.max_pair_signal_width
          then pairs := (a, b) :: !pairs)
        signals)
    signals;
  Array.of_list !pairs

let passes config s =
  s.support >= config.min_support
  && s.mean_run >= config.min_mean_run
  && (s.runs = 0
     || float_of_int s.short_runs /. float_of_int s.runs
        <= config.max_short_run_fraction)

(* Filtering and per-signal capping over a scored candidate list; shared
   verbatim by the batch and incremental paths so both produce the same
   vocabulary from the same statistics. *)
let vocabulary_of_candidates config iface all =
  let kept = List.filter (passes config) all in
  Psm_obs.count "mine.candidates" (List.length all);
  Psm_obs.count "mine.atoms_kept" (List.length kept);
  (* Cap the per-signal constant atoms at the top-k by support. *)
  let by_signal = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.atom.Atomic.rhs with
      | Atomic.Const _ ->
          let key = s.atom.Atomic.lhs in
          let existing = Option.value ~default:[] (Hashtbl.find_opt by_signal key) in
          Hashtbl.replace by_signal key (s :: existing)
      | Atomic.Sig _ -> ())
    kept;
  let capped_consts =
    Hashtbl.fold
      (fun _ entries acc ->
        let sorted =
          List.sort (fun x y -> Float.compare y.support x.support) entries
        in
        List.filteri (fun i _ -> i < config.max_consts_per_signal) sorted @ acc)
      by_signal []
  in
  let pair_atoms =
    List.filter
      (fun s -> match s.atom.Atomic.rhs with Atomic.Sig _ -> true | Atomic.Const _ -> false)
      kept
  in
  Vocabulary.create iface (List.map (fun s -> s.atom) (capped_consts @ pair_atoms))

(* Candidate scoring, one sample or one run of equal samples at a time.
   The batch entry points below feed it each trace run by run, so the
   streaming trainer and the batch flow score candidates through the
   same calls. *)
module Incremental = struct
  type t = {
    config : config;
    iface : Interface.t;
    counters : Value_counter.t array;
    narrow : bool array;
    pairs : (int * int) array;
    eqs : Run_acc.t array;
    lts : Run_acc.t array;
    gts : Run_acc.t array;
    short_below : int;
    mutable time : int; (* next global instant (trace gaps = 2) *)
    mutable total : int;
  }

  let create ?(config = default) iface =
    let arity = Interface.arity iface in
    let short_below = short_below_of config in
    let pairs = if config.mine_pairs then signal_pairs config iface else [||] in
    let k = Array.length pairs in
    { config;
      iface;
      counters = Array.init arity (fun _ -> Value_counter.create ~short_below ());
      narrow = Array.init arity (narrow_signal config iface);
      pairs;
      eqs = Array.init k (fun _ -> Run_acc.create ());
      lts = Array.init k (fun _ -> Run_acc.create ());
      gts = Array.init k (fun _ -> Run_acc.create ());
      short_below;
      time = 0;
      total = 0 }

  let interface t = t.iface
  let total t = t.total

  (* [observe_run t sample len]: [len] successive observations of the
     same sample, collapsed to one bulk observation per counter and one
     comparison + bulk step per pair. At [len = 1] the bulk steps are the
     per-cycle ones. *)
  let observe_run t sample len =
    if len <= 0 then invalid_arg "Miner.Incremental.observe_run: non-positive length";
    if Array.length sample <> Array.length t.counters then
      invalid_arg "Miner.Incremental: sample arity mismatch";
    Array.iteri
      (fun s v ->
        if Array.unsafe_get t.narrow s then
          Value_counter.observe_run t.counters.(s) t.time v len)
      sample;
    let short_below = t.short_below in
    for j = 0 to Array.length t.pairs - 1 do
      let a, b = Array.unsafe_get t.pairs j in
      let c = Bits.compare (Array.unsafe_get sample a) (Array.unsafe_get sample b) in
      Run_acc.step_run ~short_below (Array.unsafe_get t.eqs j) (c = 0) len;
      Run_acc.step_run ~short_below (Array.unsafe_get t.lts j) (c < 0) len;
      Run_acc.step_run ~short_below (Array.unsafe_get t.gts j) (c > 0) len
    done;
    t.time <- t.time + len;
    t.total <- t.total + len

  let observe t sample = observe_run t sample 1

  (* Trace boundary: runs must not bridge traces. The +2 time gap breaks
     const-value runs. *)
  let end_trace t =
    let short_below = t.short_below in
    Array.iter (Run_acc.boundary ~short_below) t.eqs;
    Array.iter (Run_acc.boundary ~short_below) t.lts;
    Array.iter (Run_acc.boundary ~short_below) t.gts;
    t.time <- t.time + 2

  (* Consts (counter fold order), then pairs (pair order). Run_accs are
     snapshotted before the pending-run close so scoring is reentrant and
     observation may continue. *)
  let candidate_stats t =
    let total = t.total in
    let consts = consts_of_counters ~total t.counters in
    let snap (a : Run_acc.t array) = Array.map (fun r -> { r with Run_acc.occ = r.Run_acc.occ }) a in
    let eqs = snap t.eqs and lts = snap t.lts and gts = snap t.gts in
    let short_below = t.short_below in
    Array.iter (Run_acc.close_pending ~short_below) eqs;
    Array.iter (Run_acc.close_pending ~short_below) lts;
    Array.iter (Run_acc.close_pending ~short_below) gts;
    consts @ pair_stats_list ~total t.pairs eqs lts gts

  let vocabulary t =
    if t.total = 0 then invalid_arg "Miner: empty training traces";
    vocabulary_of_candidates t.config t.iface (candidate_stats t)
end

(* Each trace run by run, with a boundary after it. *)
let incremental_of_traces config traces =
  let inc = Incremental.create ~config (check_traces traces) in
  List.iter
    (fun trace ->
      Functional_trace.iter_runs
        (fun ~start:_ ~len sample -> Incremental.observe_run inc sample len)
        trace;
      Incremental.end_trace inc)
    traces;
  inc

let candidate_stats ?(config = default) traces =
  let inc = incremental_of_traces config traces in
  if Incremental.total inc = 0 then invalid_arg "Miner: empty training traces";
  Incremental.candidate_stats inc

let mine_vocabulary ?(config = default) traces =
  Psm_obs.span "mine.vocabulary" @@ fun () ->
  Incremental.vocabulary (incremental_of_traces config traces)
