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
   pruning of hapax values so wide random buses cannot blow up memory.

   One open-addressing table: the entries sit in first-seen order as a
   struct of arrays, and [slots] (linear probing, at most half full)
   maps a value's [Bits.hash] to its entry. A hit updates the arrays in
   place, so observing a known value allocates nothing; a new value
   costs an amortised array growth. *)
module Value_counter = struct
  type t = {
    short_below : int;
    prune_at : int;
    mutable size : int; (* entries in use: [0, size) *)
    mutable values : Bits.t array;
    mutable occs : int array;
    mutable run_counts : int array;
    mutable short_counts : int array; (* closed runs shorter than [short_below] *)
    mutable run_lens : int array; (* length of the value's latest run *)
    mutable lasts : int array; (* instant the value was last seen *)
    mutable slots : int array; (* entry index, or -1 for an empty slot *)
    mutable hit : int; (* entry observed last, or -1 *)
  }

  let no_value = Bits.zero 1

  let create ?(prune_at = 100_000) ~short_below () =
    let cap = 16 in
    { short_below;
      prune_at;
      size = 0;
      values = Array.make cap no_value;
      occs = Array.make cap 0;
      run_counts = Array.make cap 0;
      short_counts = Array.make cap 0;
      run_lens = Array.make cap 0;
      lasts = Array.make cap 0;
      slots = Array.make (2 * cap) (-1);
      hit = -1 }

  let length t = t.size

  (* The slot holding [v]'s entry, or the empty slot where it would go. *)
  let rec probe slots values mask v i =
    let e = Array.unsafe_get slots i in
    if e < 0 || Bits.equal (Array.unsafe_get values e) v then i
    else probe slots values mask v ((i + 1) land mask)

  let find_slot t v =
    let mask = Array.length t.slots - 1 in
    probe t.slots t.values mask v (Bits.hash v land mask)

  let rec free_slot slots mask i =
    if Array.unsafe_get slots i < 0 then i else free_slot slots mask ((i + 1) land mask)

  let rebuild_slots t n =
    let slots = Array.make n (-1) and mask = n - 1 in
    for e = 0 to t.size - 1 do
      slots.(free_slot slots mask (Bits.hash t.values.(e) land mask)) <- e
    done;
    t.slots <- slots

  let grow t =
    let cap = 2 * Array.length t.occs in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.size;
      b
    in
    t.values <- extend t.values no_value;
    t.occs <- extend t.occs 0;
    t.run_counts <- extend t.run_counts 0;
    t.short_counts <- extend t.short_counts 0;
    t.run_lens <- extend t.run_lens 0;
    t.lasts <- extend t.lasts 0;
    rebuild_slots t (2 * cap)

  let insert t slot time v =
    let slot =
      if t.size < Array.length t.occs then slot
      else begin
        grow t;
        find_slot t v
      end
    in
    let e = t.size in
    t.size <- e + 1;
    t.values.(e) <- v;
    t.occs.(e) <- 1;
    t.run_counts.(e) <- 1;
    t.short_counts.(e) <- 0;
    t.run_lens.(e) <- 1;
    t.lasts.(e) <- time;
    t.slots.(slot) <- e;
    e

  (* Values seen once so far can never dominate a long trace; dropping
     them only risks losing atoms far below any sane support level. The
     survivors keep their order. Returns [e]'s new index, or -1 when [e]
     was dropped. *)
  let prune t e =
    let kept = ref 0 and moved = ref (-1) in
    for i = 0 to t.size - 1 do
      if t.occs.(i) > 1 then begin
        let j = !kept in
        if i = e then moved := j;
        t.values.(j) <- t.values.(i);
        t.occs.(j) <- t.occs.(i);
        t.run_counts.(j) <- t.run_counts.(i);
        t.short_counts.(j) <- t.short_counts.(i);
        t.run_lens.(j) <- t.run_lens.(i);
        t.lasts.(j) <- t.lasts.(i);
        kept := j + 1
      end
    done;
    if !kept < t.size then begin
      Array.fill t.values !kept (t.size - !kept) no_value;
      t.size <- !kept;
      rebuild_slots t (Array.length t.slots)
    end;
    !moved

  (* Entry [e]'s value holds again at [time]. *)
  let bump t e time =
    t.occs.(e) <- t.occs.(e) + 1;
    if t.lasts.(e) <> time - 1 then begin
      if t.run_lens.(e) < t.short_below then t.short_counts.(e) <- t.short_counts.(e) + 1;
      t.run_counts.(e) <- t.run_counts.(e) + 1;
      t.run_lens.(e) <- 1
    end
    else t.run_lens.(e) <- t.run_lens.(e) + 1;
    t.lasts.(e) <- time

  (* [observe], returning the entry that now holds [v] (-1 when the
     prune dropped it). *)
  let touch t time v =
    let h = t.hit in
    let e =
      if h >= 0 && Bits.equal (Array.unsafe_get t.values h) v then begin
        bump t h time;
        h
      end
      else begin
        let slot = find_slot t v in
        let e = Array.unsafe_get t.slots slot in
        if e < 0 then insert t slot time v
        else begin
          bump t e time;
          e
        end
      end
    in
    let e = if t.size > t.prune_at then prune t e else e in
    t.hit <- e;
    e

  let observe t time v = ignore (touch t time v)

  (* [observe_run t time v len]: the signal held [v] over the [len]
     instants [time, time + len). Exact w.r.t. [len] successive
     [observe] calls: the first cycle goes through [touch] (including
     its prune), and the remaining [len - 1] cycles only extend the entry
     it returned — occ, run_len and last advance by bulk arithmetic. The
     per-cycle prunes in that stretch would drop nothing: no new entry
     appears, and a prune leaves no hapax behind. Only when the prune
     dropped [v] itself does the next cycle start over. *)
  let rec observe_run t time v len =
    let e = touch t time v in
    if len > 1 then
      if e >= 0 then begin
        t.occs.(e) <- t.occs.(e) + len - 1;
        t.run_lens.(e) <- t.run_lens.(e) + len - 1;
        t.lasts.(e) <- time + len - 1
      end
      else observe_run t (time + 1) v (len - 1)

  (* Each value's final run is still open; it is closed into the
     reported [short_runs] without touching the entry, so iterating is
     reentrant and observation may continue afterwards. *)
  let iter f t =
    for e = 0 to t.size - 1 do
      let short_runs =
        if t.run_lens.(e) < t.short_below then t.short_counts.(e) + 1
        else t.short_counts.(e)
      in
      f t.values.(e) ~occ:t.occs.(e) ~runs:t.run_counts.(e) ~short_runs
    done
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

(* Signal [s]'s [= constant] candidates in first-seen order; with
   [min_support], only those whose support reaches it. Any path that
   feeds the counters the same samples in the same order yields the same
   list. *)
let consts_of_counter ?min_support ~total s counter =
  let acc = ref [] in
  Value_counter.iter
    (fun v ~occ ~runs ~short_runs ->
      match min_support with
      | Some m when float_of_int occ /. float_of_int total < m -> ()
      | Some _ | None -> acc := stats_of ~total (Atomic.eq_const s v) occ runs short_runs :: !acc)
    counter;
  List.rev !acc

(* Mutable run accumulator, one per pair atom, so a single trace pass
   can score many atoms at once. *)
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

(* The per-signal cap: the top [k] by support, ties to the candidate
   seen first (the sort is stable). *)
let top_k k candidates =
  List.filteri (fun i _ -> i < k)
    (List.stable_sort (fun x y -> Float.compare y.support x.support) candidates)

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
    let time = t.time in
    for s = 0 to Array.length sample - 1 do
      if Array.unsafe_get t.narrow s then
        Value_counter.observe_run (Array.unsafe_get t.counters s) time
          (Array.unsafe_get sample s) len
    done;
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

  (* Pair candidates in pair order. The Run_accs are snapshotted before
     the pending-run close, so scoring is reentrant and observation may
     continue. *)
  let pair_candidates t =
    let snap (a : Run_acc.t array) = Array.map (fun r -> { r with Run_acc.occ = r.Run_acc.occ }) a in
    let eqs = snap t.eqs and lts = snap t.lts and gts = snap t.gts in
    let short_below = t.short_below in
    Array.iter (Run_acc.close_pending ~short_below) eqs;
    Array.iter (Run_acc.close_pending ~short_below) lts;
    Array.iter (Run_acc.close_pending ~short_below) gts;
    pair_stats_list ~total:t.total t.pairs eqs lts gts

  (* Consts (signal order, first-seen within a signal), then pairs. *)
  let candidate_stats t =
    let total = t.total in
    List.concat (Array.to_list (Array.mapi (fun s c -> consts_of_counter ~total s c) t.counters))
    @ pair_candidates t

  (* Constants below [min_support] can never pass, so only the frequent
     ones are scored; every candidate is still counted. *)
  let vocabulary t =
    if t.total = 0 then invalid_arg "Miner: empty training traces";
    let config = t.config and total = t.total in
    let candidates = ref (3 * Array.length t.pairs) and kept = ref 0 in
    let filter l =
      let l = List.filter (passes config) l in
      kept := !kept + List.length l;
      l
    in
    let consts =
      Array.mapi
        (fun s counter ->
          candidates := !candidates + Value_counter.length counter;
          top_k config.max_consts_per_signal
            (filter (consts_of_counter ~min_support:config.min_support ~total s counter)))
        t.counters
    in
    let pairs = filter (pair_candidates t) in
    Psm_obs.count "mine.candidates" !candidates;
    Psm_obs.count "mine.atoms_kept" !kept;
    Vocabulary.create t.iface
      (List.map (fun s -> s.atom) (List.concat (Array.to_list consts) @ pairs))
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

let mine_vocabulary ?(config = default) traces =
  Psm_obs.span "mine.vocabulary" @@ fun () ->
  Incremental.vocabulary (incremental_of_traces config traces)
