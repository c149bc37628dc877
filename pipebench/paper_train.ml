(* paper-train: the four paper IPs at Table II short-TS lengths, each
   through Flow.train_on_vcd_files, Persist save/load and offline
   estimation of a held-out long-TS trace against its reference power. *)

open Common
module Flow = Psm_flow.Flow
module Persist = Psm_flow.Persist
module Multi_sim = Psm_hmm.Multi_sim
module Accuracy = Psm_hmm.Accuracy
module Analyzer = Psm_analysis.Analyzer
module Prop_trace = Psm_mining.Prop_trace
module Psm = Psm_core.Psm

type input = {
  ip : string;
  paths : string list;
  heldout : Psm_trace.Functional_trace.t;
  reference : Psm_trace.Power_trace.t;
}

type ip_result = {
  cycles : int;
  train_s : float;
  estimate_s : float;
  model_text : string;
  mre : float;
}

let load dir =
  List.map
    (fun ip ->
      let h = Flow.load_vcd (Setup.heldout_path dir ip) in
      { ip;
        paths = List.init 4 (Setup.vcd_path dir "train" ip);
        heldout = h.Flow.functional;
        reference = h.Flow.power })
    ips

let train_cycles (ingested : Flow.ingested list) =
  List.fold_left (fun n i -> n + Psm_trace.Functional_trace.length i.Flow.functional) 0 ingested

(* One IP, untraced: exactly what a user of the library runs. *)
let run_ip input =
  let t0 = now () in
  let trained, ingested = Flow.train_on_vcd_files input.paths in
  let train_s = now () -. t0 in
  let model_text = Persist.save trained in
  let model = Persist.load model_text in
  let t1 = now () in
  let result = Multi_sim.simulate model.Persist.hmm input.heldout in
  let estimate_s = now () -. t1 in
  let acc = Accuracy.of_result ~reference:input.reference result in
  ( trained,
    { cycles = train_cycles ingested; train_s; estimate_s; model_text; mre = acc.Accuracy.mre } )

let same_estimate (a : Multi_sim.result) (b : Multi_sim.result) =
  a.Multi_sim.state_trace = b.Multi_sim.state_trace
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Multi_sim.estimate b.Multi_sim.estimate

(* Self-checks on the warm-up pass: no Error findings, and the model
   reloaded from its persisted text estimates bit-identically. *)
let check_warmup input (trained : Flow.trained) (r : ip_result) =
  check
    (Printf.sprintf "%s: trained model has no Error findings" input.ip)
    (Psm_analysis.Finding.errors trained.Flow.analysis = []);
  let loaded = Persist.load r.model_text in
  check
    (Printf.sprintf "%s: persisted model estimates bit-identically" input.ip)
    (same_estimate
       (Multi_sim.simulate trained.Flow.hmm input.heldout)
       (Multi_sim.simulate loaded.Persist.hmm input.heldout))

(* ---------- traced replay ---------- *)

(* The stages Flow.train runs, called one by one so each layer's time is
   measured; every stage output is then compared with the matching field
   of Flow.train's result, so the attribution measures the same program. *)
let replay input (reference : Flow.trained) =
  let config = Flow.default in
  let ingested =
    Layers.time "trace.ingest_s" (fun () ->
        Psm_par.parallel_map (fun p -> Flow.load_vcd p) input.paths)
  in
  let traces = List.map (fun i -> i.Flow.functional) ingested in
  let powers = List.map (fun i -> i.Flow.power) ingested in
  let cycles = train_cycles ingested in
  Layers.add "trace.bytes" (float_of_int (List.fold_left (fun n i -> n + i.Flow.ingest.Psm_trace.Reader.bytes) 0 ingested));
  let runs =
    List.fold_left (fun n t -> n + Psm_trace.Runs.count (Psm_trace.Functional_trace.runs t)) 0 traces
  in
  Layers.set ("trace.runs_per_cycle." ^ input.ip) (float_of_int runs /. float_of_int cycles);
  Layers.add "trace.runs" (float_of_int runs);
  Layers.add "trace.cycles" (float_of_int cycles);
  let table, gammas =
    Layers.time ~alloc:"mining.alloc_words" "mining.mine_s" (fun () ->
        let vocabulary = Psm_mining.Miner.mine_vocabulary ~config:config.Flow.miner traces in
        let table = Prop_trace.Table.create vocabulary in
        (table, List.map (Prop_trace.of_functional table) traces))
  in
  Layers.add "mining.cycles" (float_of_int cycles);
  Layers.add "mining.props" (float_of_int (Prop_trace.Table.prop_count table));
  let raw =
    Layers.time "core.generate_s" (fun () ->
        fst
          (List.fold_left
             (fun (psm, idx) (gamma, delta) ->
               (Psm_core.Generator.generate psm ~trace:idx gamma delta, idx + 1))
             (Psm.empty table, 0) (List.combine gammas powers)))
  in
  let traces_arr = Array.of_list traces and powers_arr = Array.of_list powers in
  let optimized =
    Layers.time "core.combine_s" (fun () ->
        let simplified, _ = Psm_core.Simplify.simplify_traced ~config:config.Flow.merge raw in
        let joined, _ = Psm_core.Join.join_traced ~config:config.Flow.merge simplified in
        fst
          (Psm_core.Optimize.optimize ~config:config.Flow.optimize ~traces:traces_arr
             ~powers:powers_arr joined))
  in
  Layers.add "core.raw_states" (float_of_int (Psm.state_count raw));
  Layers.add "core.states" (float_of_int (Psm.state_count optimized));
  Layers.set ("core.states." ^ input.ip) (float_of_int (Psm.state_count optimized));
  let hmm =
    Layers.time "hmm.build_s" (fun () ->
        Psm_hmm.Hmm.build ~transition_counts:reference.Flow.transition_counts
          ~emission_counts:reference.Flow.emission_counts optimized)
  in
  let gammas_arr = Array.of_list gammas in
  (* The IP's share of a layer total, for the per-IP metrics. *)
  let per_ip name f =
    let before = Layers.get name in
    let r = Layers.time name f in
    Layers.set (name ^ "." ^ input.ip) (Layers.get name -. before);
    r
  in
  ignore
    (per_ip "analysis.raw_s" (fun () ->
         Analyzer.analyze ~config:config.Flow.analysis ~gammas:gammas_arr ~powers:powers_arr raw));
  let findings =
    per_ip "analysis.final_s" (fun () ->
        Analyzer.analyze ~config:config.Flow.analysis ~hmm ~gammas:gammas_arr
          ~powers:powers_arr optimized)
  in
  Layers.add "analysis.errors" (float_of_int (List.length (Psm_analysis.Finding.errors findings)));
  let replayed = { reference with Flow.table; raw; optimized; hmm; analysis = findings } in
  let text = Layers.time "flow.persist_save_s" (fun () -> Persist.save replayed) in
  Layers.add "flow.model_bytes" (float_of_int (String.length text));
  let model = Layers.time "flow.persist_load_s" (fun () -> Persist.load text) in
  let result =
    Layers.time ~alloc:"hmm.alloc_words" "hmm.simulate_s" (fun () ->
        Multi_sim.simulate model.Persist.hmm input.heldout)
  in
  let n = Psm_trace.Functional_trace.length input.heldout in
  Layers.add "hmm.cycles" (float_of_int n);
  Layers.add "hmm.sim_cycles" (float_of_int n);
  Layers.add "hmm.wrong_instants" (float_of_int result.Multi_sim.wrong_instants);
  Layers.add "hmm.resync_events" (float_of_int result.Multi_sim.resync_events);
  (* Timed apart so the traced pass can leave it out of its wall clock. *)
  Layers.time "bench.check_s" (fun () ->
      check
        (Printf.sprintf "%s: replayed stages equal Flow.train's result" input.ip)
        (Array.for_all2
           (fun a b -> Prop_trace.prop_ids a = Prop_trace.prop_ids b)
           gammas_arr reference.Flow.gammas
        && Psm.states raw = Psm.states reference.Flow.raw
        && Psm.transitions raw = Psm.transitions reference.Flow.raw
        && findings = reference.Flow.analysis
        && text = Persist.save reference));
  (gammas_arr, powers_arr, raw, hmm, optimized)

(* Flow.train's two Analyzer calls (raw chains, then the final model)
   again, one rule at a time, outside the replay's wall clock: together
   they repeat analysis.raw_s + analysis.final_s. *)
let time_rules (gammas, powers, raw, hmm, optimized) =
  List.iter
    (fun (rule : Psm_analysis.Rule.t) ->
      let config = { Analyzer.default with Analyzer.rules = Some [ rule.Psm_analysis.Rule.name ] } in
      Layers.time ("analysis.rule_s." ^ rule.Psm_analysis.Rule.name) (fun () ->
          ignore (Analyzer.analyze ~config ~gammas ~powers raw);
          ignore (Analyzer.analyze ~config ~hmm ~gammas ~powers optimized)))
    (Analyzer.rules ())

let run ~dir ~seconds ~trace =
  let inputs = load dir in
  (* Warm-up: untimed, and the pass whose outputs the self-checks test. *)
  let warm = List.map run_ip inputs in
  let peak = peak_heap_mb () in
  List.iter2 (fun input (trained, r) -> check_warmup input trained r) inputs warm;
  let texts = List.map (fun (_, r) -> r.model_text) warm in
  let mres = List.map (fun (_, r) -> r.mre) warm in
  (* Keep the trained models only for the traced replay's comparisons. *)
  let references = if trace then List.map fst warm else [] in
  let pass () =
    let t0 = now () in
    let rs = List.map (fun i -> snd (run_ip i)) inputs in
    let wall = now () -. t0 in
    List.iter2
      (fun (input, text) r ->
        check (Printf.sprintf "%s: pass retrains the warm-up model" input.ip) (r.model_text = text))
      (List.combine inputs texts) rs;
    (wall, rs)
  in
  let timed = timed_passes ~seconds pass in
  let passes = List.map fst timed and scales = List.map snd timed in
  let sum = List.fold_left ( +. ) 0. in
  let train_cycles = float_of_int (List.fold_left (fun a r -> a + r.cycles) 0 (snd (List.hd passes))) in
  let heldout_cycles =
    float_of_int (List.fold_left (fun n i -> n + Psm_trace.Functional_trace.length i.heldout) 0 inputs)
  in
  (* Each rate divides by the sum over IPs of the IP's median time over
     the passes, which a burst of host noise in one pass does not move;
     the per-pass rates give the spread. Times are scaled to the host's
     reference speed (see [timed_passes]); the wall-clock rate is kept
     beside the first. *)
  let ip_times f = List.mapi (fun k _ -> List.map (fun (_, rs) -> f (List.nth rs k)) passes) ips in
  let rate cycles f =
    let times = ip_times f in
    ( cycles /. sum (List.map (fun ts -> median (List.map2 ( *. ) ts scales)) times),
      cycles /. sum (List.map median times),
      List.map2 (fun (_, rs) s -> cycles /. (s *. sum (List.map f rs))) passes scales )
  in
  let train_rate, wall_rate, train_rates = rate train_cycles (fun r -> r.train_s) in
  let est_rate, _, est_rates = rate heldout_cycles (fun r -> r.estimate_s) in
  let mre = 100. *. sum mres /. float_of_int (List.length mres) in
  let walls = List.map fst passes in
  Printf.printf "paper-train: %d timed passes over %s\n" (List.length passes) (String.concat ", " ips);
  report_metric ~value:train_rate "train_cycles_per_s" "cycles/s" train_rates;
  report_metric ~value:wall_rate "wall_train_cycles_per_s" "cycles/s"
    (List.map (fun (w, _) -> train_cycles /. w) passes);
  report_metric ~value:(probe_s scales) "host.probe_s" "s"
    (List.map (fun s -> Host.reference_s /. s) scales);
  report_metric ~value:est_rate "estimate_cycles_per_s" "cycles/s" est_rates;
  report_metric "est_mre" "%" [ mre ];
  report_metric "pass_s" "s" walls;
  let train_s = ip_times (fun r -> r.train_s) in
  List.iter2 (fun ip ts -> report_metric ("train_s." ^ ip) "s" ts) ips train_s;
  let untraced =
    [ ("cycles_per_s", train_rate);
      ("wall_cycles_per_s", wall_rate);
      ("host.probe_s", probe_s scales);
      ("est_mre", mre);
      ("peak_heap_mb", peak);
      ("hmm.estimate_cycles_per_s", est_rate);
      ("pass_s", median walls) ]
    @ List.map2 (fun ip ts -> ("flow.train_s." ^ ip, median ts)) ips train_s
  in
  if trace then begin
    let traced () =
      Layers.reset ();
      let t0 = now () in
      let replays = List.map2 replay inputs references in
      let wall = now () -. t0 -. Layers.get "bench.check_s" in
      (wall, replays)
    in
    Layers.tracing := true;
    let traced_passes = List.map fst (timed_passes ~seconds traced) in
    let wall, replays = List.nth traced_passes (List.length traced_passes - 1) in
    summarize_traced ~wall ~traced_walls:(List.map fst traced_passes) ~untraced_walls:walls
      ~attributed:
        [ "trace.ingest_s"; "mining.mine_s"; "core.generate_s"; "core.combine_s"; "hmm.build_s";
          "analysis.raw_s"; "analysis.final_s"; "flow.persist_save_s"; "flow.persist_load_s";
          "hmm.simulate_s" ];
    List.iter time_rules replays;
    record_alloc_per_cycle (fun () -> ignore (List.map2 replay inputs references))
  end;
  untraced
