(* Per-cycle reference for vocabulary mining (paper Sec. III-A). The
   library's [Miner.Value_counter] keeps its entries in first-seen order
   in parallel arrays behind an open-addressing slot index, and
   [Miner.Incremental.vocabulary] scores only the constants that reach
   [min_support]. This module keeps the counter it replaced — a
   polymorphic [Hashtbl] of mutable cells, fed one instant at a time —
   and a vocabulary built the long way: every candidate scored, filtered,
   and capped per signal. test_mining pins the library against it.

   [Value_counter] is the old library module's per-cycle half
   ([create], [observe], [fold]) unchanged, except that a cell also
   records the instant its value entered the table, so the per-signal
   cap can apply the documented tie-break (equal support: first seen
   wins) without depending on the table's bucket order. *)

module Bits = Psm_bits.Bits
module Functional_trace = Psm_trace.Functional_trace
module Interface = Psm_trace.Interface
module Signal = Psm_trace.Signal
module Atomic = Psm_mining.Atomic
module Vocabulary = Psm_mining.Vocabulary
module Miner = Psm_mining.Miner

module Value_counter = struct
  type cell = {
    mutable occ : int;
    mutable runs : int;
    mutable short_runs : int;
    mutable run_len : int;
    mutable last : int;
    first : int;
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
        Hashtbl.add t.table v
          { occ = 1; runs = 1; short_runs = 0; run_len = 1; last = time; first = time });
    if Hashtbl.length t.table > t.prune_at then begin
      let doomed =
        Hashtbl.fold (fun v c acc -> if c.occ <= 1 then v :: acc else acc) t.table []
      in
      List.iter (Hashtbl.remove t.table) doomed
    end

  (* Snapshot cells with each value's open final run closed. *)
  let fold f t init =
    Hashtbl.fold
      (fun v c acc ->
        let short_runs =
          if c.run_len < t.short_below then c.short_runs + 1 else c.short_runs
        in
        f v { c with short_runs } acc)
      t.table init
end

(* One atom's statistics, scored by walking every instant. *)
type score = { occ : int; runs : int; short_runs : int }

let support ~total (s : score) = float_of_int s.occ /. float_of_int total

let passes (config : Miner.config) ~total (s : score) =
  support ~total s >= config.Miner.min_support
  && (if s.runs = 0 then 0. else float_of_int s.occ /. float_of_int s.runs)
     >= config.Miner.min_mean_run
  && (s.runs = 0
     || float_of_int s.short_runs /. float_of_int s.runs
        <= config.Miner.max_short_run_fraction)

(* Runs of [holds trace time] within each trace; a run never bridges two
   traces. *)
let score_predicate ~short_below traces holds =
  let occ = ref 0 and runs = ref 0 and short_runs = ref 0 in
  List.iter
    (fun trace ->
      let run_len = ref 0 in
      let close () =
        if !run_len > 0 && !run_len < short_below then incr short_runs;
        run_len := 0
      in
      for time = 0 to Functional_trace.length trace - 1 do
        if holds (Functional_trace.sample trace ~time) then begin
          incr occ;
          if !run_len = 0 then incr runs;
          incr run_len
        end
        else close ()
      done;
      close ())
    traces;
  { occ = !occ; runs = !runs; short_runs = !short_runs }

(* The vocabulary of [Miner.mine_vocabulary], built per cycle: one
   [Value_counter] per narrow signal (global time with a gap of 2 between
   traces), each pair atom scored by its own walk. *)
let vocabulary ?(config = Miner.default) traces =
  let iface = Functional_trace.interface (List.hd traces) in
  let signals = Interface.signals iface in
  let short_below = int_of_float (ceil config.Miner.min_mean_run) in
  let total = List.fold_left (fun n t -> n + Functional_trace.length t) 0 traces in
  let narrow s = signals.(s).Signal.width <= config.Miner.max_const_signal_width in
  let counters = Array.map (fun _ -> Value_counter.create ~short_below ()) signals in
  let time = ref 0 in
  List.iter
    (fun trace ->
      Functional_trace.iter
        (fun _ sample ->
          Array.iteri (fun s v -> if narrow s then Value_counter.observe counters.(s) !time v) sample;
          incr time)
        trace;
      time := !time + 2)
    traces;
  let consts =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun s counter ->
              let scored =
                Value_counter.fold
                  (fun v (c : Value_counter.cell) acc ->
                    ({ occ = c.occ; runs = c.runs; short_runs = c.short_runs }, c.first, v)
                    :: acc)
                  counter []
              in
              List.filter (fun (sc, _, _) -> passes config ~total sc) scored
              |> List.sort (fun (a, fa, _) (b, fb, _) ->
                     let c = Float.compare (support ~total b) (support ~total a) in
                     if c <> 0 then c else Int.compare fa fb)
              |> List.filteri (fun i _ -> i < config.Miner.max_consts_per_signal)
              |> List.map (fun (_, _, v) -> Atomic.eq_const s v))
            counters))
  in
  let pairs =
    if not config.Miner.mine_pairs then []
    else
      List.concat_map
        (fun a ->
          List.concat_map
            (fun b ->
              let wa = signals.(a).Signal.width and wb = signals.(b).Signal.width in
              if a < b && wa = wb && wa > 1 && wa <= config.Miner.max_pair_signal_width then
                List.filter_map
                  (fun cmp ->
                    let atom = Atomic.compare_signals cmp a b in
                    let sc = score_predicate ~short_below traces (Atomic.eval atom) in
                    if passes config ~total sc then Some atom else None)
                  [ Atomic.Eq; Atomic.Lt; Atomic.Gt ]
              else [])
            (List.init (Array.length signals) Fun.id))
        (List.init (Array.length signals) Fun.id)
  in
  Vocabulary.create iface (consts @ pairs)
