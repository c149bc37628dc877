let log_src = Logs.Src.create "psm.flow" ~doc:"PSM generation flow"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Miner = Psm_mining.Miner
module Prop_trace = Psm_mining.Prop_trace
module Sample_tracker = Psm_mining.Sample_tracker
module Psm = Psm_core.Psm
module Hmm = Psm_hmm.Hmm
module Multi_sim = Psm_hmm.Multi_sim
module Accuracy = Psm_hmm.Accuracy

module Analyzer = Psm_analysis.Analyzer

type config = {
  miner : Miner.config;
  merge : Psm_core.Merge.config;
  optimize : Psm_core.Optimize.config;
  power : Psm_rtl.Power_model.config;
  analysis : Analyzer.config;
}

let default =
  { miner = Miner.default;
    merge = Psm_core.Merge.default;
    optimize = Psm_core.Optimize.default;
    power = Psm_rtl.Power_model.default;
    analysis = Analyzer.default }

type timings = { mine_s : float; generate_s : float; combine_s : float; analyze_s : float }

let total_generation_s t = t.mine_s +. t.generate_s +. t.combine_s

type trained = {
  config : config;
  table : Prop_trace.Table.t;
  traces : Functional_trace.t array;
  powers : Power_trace.t array;
  gammas : Prop_trace.t array;
  raw : Psm.t;
  optimized : Psm.t;
  optimize_reports : Psm_core.Optimize.report list;
  hmm : Hmm.t;
  transition_counts : ((int * int) * float) list;
  emission_counts : ((int * int) * float) list;
  analysis : Psm_analysis.Finding.t list;
  timings : timings;
}

(* Exception-safe stage timing: the slot is written even when the stage
   raises, and the [Psm_obs] span closes too, so a failing pipeline still
   leaves a partial profile behind (the stages that did run keep their
   recorded durations). *)
let timed name slot f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> slot := Unix.gettimeofday () -. t0)
    (fun () -> Psm_obs.span name f)

let train ?(config = default) ~traces ~powers () =
  Psm_obs.span "flow.train" @@ fun () ->
  let mine_slot = ref 0. in
  let generate_slot = ref 0. in
  let combine_slot = ref 0. in
  let analyze_slot = ref 0. in
  if List.length traces <> List.length powers then
    invalid_arg "Flow.train: traces and powers differ in number";
  if traces = [] then invalid_arg "Flow.train: no training traces";
  List.iter2
    (fun t p ->
      if Functional_trace.length t <> Power_trace.length p then
        invalid_arg "Flow.train: functional/power trace length mismatch")
    traces powers;
  (* Mining: shared vocabulary, then one proposition trace per training
     trace against a shared interning table. *)
  let table, prop_traces =
    timed "flow.mine" mine_slot (fun () ->
        let vocabulary = Miner.mine_vocabulary ~config:config.miner traces in
        let table = Prop_trace.Table.create vocabulary in
        (table, List.map (Prop_trace.of_functional table) traces))
  in
  let mine_s = !mine_slot in
  Log.info (fun m ->
      m "mining: %d atoms, %d propositions over %d traces in %.3fs"
        (Psm_mining.Vocabulary.size (Prop_trace.Table.vocabulary table))
        (Prop_trace.Table.prop_count table) (List.length traces) mine_s);
  (* Generation: one chain per trace, accumulated into one PSM set. *)
  let raw =
    timed "flow.generate" generate_slot (fun () ->
        let psm = Psm.empty table in
        List.fold_left
          (fun (psm, idx) (gamma, delta) ->
            (Psm_core.Generator.generate psm ~trace:idx gamma delta, idx + 1))
          (psm, 0)
          (List.combine prop_traces powers)
        |> fst)
  in
  let generate_s = !generate_slot in
  Log.info (fun m ->
      m "generation: %d raw chain states in %.3fs" (Psm.state_count raw) generate_s);
  (* Combination and optimization. *)
  let traces_arr = Array.of_list traces in
  let powers_arr = Array.of_list powers in
  let gammas_arr = Array.of_list prop_traces in
  let optimized, optimize_reports, hmm, transition_counts, emission_counts =
    timed "flow.combine" combine_slot (fun () ->
        (* Simplify and join on one table: the simplified machine is
           never built, and [final] is the composed redirect map. *)
        let w = Psm_core.Chain_table.of_psm raw in
        Psm_core.Simplify.simplify_table ~config:config.merge w;
        Psm_core.Join.join_table ~config:config.merge w;
        let joined, final = Psm_core.Chain_table.to_psm w in
        let optimized, reports =
          Psm_core.Optimize.optimize ~config:config.optimize ~traces:traces_arr
            ~powers:powers_arr joined
        in
        (* Project the raw chains' transition frequencies onto the final
           machine: every chain edge is one training occurrence. *)
        let counts = Hashtbl.create 64 in
        List.iter
          (fun (tr : Psm.transition) ->
            let key = (final tr.Psm.src, final tr.Psm.dst) in
            Hashtbl.replace counts key
              (1. +. Option.value ~default:0. (Hashtbl.find_opt counts key)))
          (Psm.transitions raw);
        let transition_counts =
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
        in
        (* Emission frequencies: which propositions were observed while
           each final state was active (for offline Viterbi decoding). *)
        let gammas = gammas_arr in
        let emission_counts =
          List.concat_map
            (fun (s : Psm.state) ->
              let per_prop = Hashtbl.create 8 in
              let bump p n =
                Hashtbl.replace per_prop p
                  (float_of_int n +. Option.value ~default:0. (Hashtbl.find_opt per_prop p))
              in
              List.iter
                (fun iv ->
                  let gamma = gammas.(iv.Psm_core.Power_attr.trace) in
                  (* One bump per Γ segment in the window; integer
                     counts accumulated in floats stay exact, and props
                     first appear in the same time order, so the table
                     (and its fold order) matches a per-instant count. *)
                  Prop_trace.iter_prop_runs gamma ~start:iv.Psm_core.Power_attr.start
                    ~stop:iv.Psm_core.Power_attr.stop
                    (fun p ~start:_ ~len -> bump p len))
                s.Psm.attr.Psm_core.Power_attr.intervals;
              Hashtbl.fold (fun p c acc -> ((s.Psm.id, p), c) :: acc) per_prop [])
            (Psm.states optimized)
          |> List.sort compare
        in
        ( optimized,
          reports,
          Hmm.build ~transition_counts ~emission_counts optimized,
          transition_counts,
          emission_counts ))
  in
  let combine_s = !combine_slot in
  Log.info (fun m ->
      m "combination: %d states, %d transitions, %d regression states in %.3fs"
        (Psm.state_count optimized) (Psm.transition_count optimized)
        (List.length (List.filter (fun r -> r.Psm_core.Optimize.upgraded) optimize_reports))
        combine_s);
  (* Gate-check the combined model like a compiler pass, with the full
     training context. The generator's raw chains are not analyzed here:
     their findings would name states the result no longer has, and a
     test pins that the generator produces none with an Error. *)
  let analysis =
    timed "flow.analyze" analyze_slot (fun () ->
        Analyzer.analyze ~config:config.analysis ~hmm ~gammas:gammas_arr ~powers:powers_arr
          optimized)
  in
  let analyze_s = !analyze_slot in
  Psm_obs.gc_snapshot "train";
  Log.info (fun m ->
      m "analysis: %s in %.3fs" (Psm_analysis.Report.summary analysis) analyze_s);
  { config;
    table;
    traces = traces_arr;
    powers = powers_arr;
    gammas = gammas_arr;
    raw;
    optimized;
    optimize_reports;
    hmm;
    transition_counts;
    emission_counts;
    analysis;
    timings = { mine_s; generate_s; combine_s; analyze_s } }

let lint trained =
  Psm_obs.span "flow.lint" @@ fun () ->
  (* The proposition traces were interned once at training time and ride
     along in [trained.gammas]; re-deriving them per lint call repeated
     the full classification pass for no benefit (the table is immutable
     after training). *)
  let gammas = trained.gammas in
  let findings =
    Analyzer.analyze ~config:trained.config.analysis ~hmm:trained.hmm ~gammas
      ~powers:trained.powers trained.optimized
  in
  (* Self-accounting: warn when the analyzer cost more than the allowed
     fraction of the generation pipeline it was checking. *)
  let overhead =
    Analyzer.overhead_check ~config:trained.config.analysis
      ~analyze_s:trained.timings.analyze_s
      ~generation_s:(total_generation_s trained.timings) ()
  in
  Psm_analysis.Finding.sort (findings @ overhead)

let verify ?coverage_budget ?max_gaps trained =
  Psm_obs.span "flow.verify" @@ fun () ->
  Psm_verify.Verify.run ?coverage_budget ?max_gaps trained.optimized

let split_stimulus stimulus ~parts =
  if parts <= 0 then invalid_arg "Flow.split_stimulus: parts must be positive";
  let n = Array.length stimulus in
  (* min n parts chunks: a stimulus shorter than the requested fan-out
     degrades to one single-sample chunk per sample instead of one
     unsplittable blob (which serialized the whole workload onto one
     worker). The empty stimulus keeps its single empty chunk. *)
  if n = 0 then [ stimulus ]
  else begin
    let parts = min parts n in
    let base = n / parts in
    List.init parts (fun k ->
        let start = k * base in
        let len = if k = parts - 1 then n - start else base in
        Array.sub stimulus start len)
  end

type ingested = {
  path : string;
  functional : Functional_trace.t;
  power : Power_trace.t;
  ingest : Psm_trace.Reader.stats;
}

let load_vcd ?unknowns ?period path =
  Psm_obs.span "flow.load_vcd" @@ fun () ->
  let parsed = Psm_trace.Vcd.parse_file ?unknowns ?period path in
  match parsed.Psm_trace.Vcd.power with
  | None ->
      invalid_arg
        (Printf.sprintf "Flow.load_vcd: %s carries no %s real variable" path
           Psm_trace.Vcd.power_var_name)
  | Some power ->
      Log.info (fun m ->
          m "ingested %s: %a" path Psm_trace.Reader.pp_stats
            parsed.Psm_trace.Vcd.stats);
      { path;
        functional = parsed.Psm_trace.Vcd.trace;
        power;
        ingest = parsed.Psm_trace.Vcd.stats }

let train_on_vcd_files ?config ?unknowns ?period paths =
  if paths = [] then invalid_arg "Flow.train_on_vcd_files: no files";
  let ingested = List.map (load_vcd ?unknowns ?period) paths in
  let trained =
    train ?config
      ~traces:(List.map (fun i -> i.functional) ingested)
      ~powers:(List.map (fun i -> i.power) ingested)
      ()
  in
  (trained, ingested)

let train_on_ip ?(config = default) ip stimuli =
  let pairs =
    List.map (fun stimulus -> Psm_ips.Capture.run ~config:config.power ip stimulus) stimuli
  in
  train ~config ~traces:(List.map fst pairs) ~powers:(List.map snd pairs) ()

let evaluate trained trace ~reference =
  Psm_obs.span "flow.evaluate" @@ fun () ->
  let result = Multi_sim.simulate trained.hmm trace in
  (Accuracy.of_result ~reference result, result)

let evaluate_on_ip trained ip stimulus =
  let trace, reference = Psm_ips.Capture.run ~config:trained.config.power ip stimulus in
  evaluate trained trace ~reference

let cosim_timed trained (ip : Psm_ips.Ip.t) stimulus =
  Psm_obs.span "flow.cosim" @@ fun () ->
  ip.Psm_ips.Ip.reset ();
  let stepper = Multi_sim.Stepper.create trained.hmm in
  let tracker = Sample_tracker.create trained.table in
  Gc.major ();
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun pis ->
      let pos, _activity = ip.Psm_ips.Ip.step pis in
      Sample_tracker.observe tracker (Array.append pis pos);
      Multi_sim.Stepper.advance stepper ~hamming:(Sample_tracker.hamming tracker)
        (Sample_tracker.code tracker))
    stimulus;
  Unix.gettimeofday () -. t0
