(* psmgen — command-line front end for the PSM generation flow.

   Subcommands:
     generate   run the full flow on a named benchmark IP, print the PSM
                set, optionally dump Graphviz/VCD/CSV artifacts
     evaluate   train on short-TS, evaluate accuracy on long-TS
     trace      capture a training trace and write it as VCD and/or CSV
     stats      run-length structure of a trace (compression, histogram)
     lint       statically analyze a persisted model
     verify     symbolically prove model invariants over the atom theory
     diff       semantic (bisimulation) comparison of two models
     info       list the benchmark IPs and their interfaces *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let logs_arg =
  Term.(const setup_logs
        $ Arg.(value & flag & info [ "verbose-flow" ] ~doc:"Log flow stage details."))

module Flow = Psm_flow.Flow
module Workloads = Psm_ips.Workloads
module Capture = Psm_ips.Capture
module Psm = Psm_core.Psm

let ip_names =
  [ "RAM"; "MultSum"; "MultSum-gates"; "AES"; "Camellia"; "Camellia-noscrub"; "FIFO" ]

let make_ip = function
  | "RAM" -> Psm_ips.Ram.create ()
  | "MultSum" -> Psm_ips.Multsum.create ()
  | "MultSum-gates" -> Psm_ips.Multsum.create_structural ()
  | "AES" -> Psm_ips.Aes.create ()
  | "Camellia" -> Psm_ips.Camellia.create ()
  | "Camellia-noscrub" -> Psm_ips.Camellia.create_without_scrubber ()
  | "FIFO" -> Psm_ips.Fifo.create ()
  | other -> failwith ("unknown IP " ^ other)

let ip_arg =
  let doc = Printf.sprintf "Benchmark IP (%s)." (String.concat ", " ip_names) in
  Arg.(required & pos 0 (some (enum (List.map (fun n -> (n, n)) ip_names))) None
       & info [] ~docv:"IP" ~doc)

let length_arg ~default ~doc =
  Arg.(value & opt int default & info [ "length"; "n" ] ~docv:"CYCLES" ~doc)

let parts_arg =
  Arg.(value & opt int 4
       & info [ "parts" ] ~docv:"N" ~doc:"Number of testbenches in the training suite.")

let epsilon_arg =
  Arg.(value & opt float Psm_core.Merge.default.Psm_core.Merge.epsilon
       & info [ "epsilon" ] ~docv:"E" ~doc:"Relative merge tolerance (Case 1).")

let dot_arg =
  Arg.(value & opt (some string) None
       & info [ "dot" ] ~docv:"FILE" ~doc:"Write the combined PSM set as Graphviz dot.")

let config ~epsilon =
  { Flow.default with
    merge = { Psm_core.Merge.default with Psm_core.Merge.epsilon } }

let train ~name ~length ~parts ~epsilon =
  let ip = make_ip name in
  let total_length =
    match length with Some l -> l | None -> Workloads.paper_short_length name
  in
  let suite = Workloads.suite ~parts ~total_length ~long:false name in
  (ip, Flow.train_on_ip ~config:(config ~epsilon) ip suite)

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "save" ] ~docv:"FILE"
           ~doc:"Persist the trained model (reload with 'psmgen apply').")

let lint_flag =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Print the static-analysis report for the model.")

module Analyzer = Psm_analysis.Analyzer
module Report = Psm_analysis.Report

(* ---- profiling (--profile) ---- *)

let profile_arg =
  Arg.(value & opt ~vopt:(Some "psm-profile.json") (some string) None
       & info [ "profile" ] ~docv:"FILE"
           ~doc:"Enable the observability sink and write the recorded spans as \
                 Chrome trace-event JSON (load in chrome://tracing or Perfetto). \
                 FILE defaults to psm-profile.json.")

let with_profile profile f =
  match profile with
  | None -> f ()
  | Some path ->
      Psm_obs.enable ();
      Fun.protect f ~finally:(fun () ->
          (* Written in the finally so a failing run still leaves the
             partial profile behind. *)
          let summary = Psm_obs.snapshot () in
          Psm_obs.write_chrome_file path;
          Printf.printf "Wrote %s (%d spans, %d distinct names)\n" path
            (List.length summary.Psm_obs.events)
            (List.length summary.Psm_obs.span_stats))

(* ---- generate ---- *)

let generate name length parts epsilon dot save lint verbose profile =
  with_profile profile @@ fun () ->
  let length = if length = 0 then None else Some length in
  let _ip, trained = train ~name ~length ~parts ~epsilon in
  let psm = trained.Flow.optimized in
  Printf.printf "Trained PSM set for %s:\n" name;
  Format.printf "%a@." Psm.pp psm;
  if verbose then begin
    let table = trained.Flow.table in
    Printf.printf "\nPropositions:\n";
    for p = 0 to Psm_mining.Prop_trace.Table.prop_count table - 1 do
      Format.printf "  %a@." (Psm_mining.Prop_trace.Table.pp_prop table) p
    done;
    Printf.printf "\nOptimization reports:\n";
    List.iter
      (fun r ->
        Printf.printf "  state %d: sigma/mu=%.3f r=%.3f upgraded=%b\n"
          r.Psm_core.Optimize.state_id r.Psm_core.Optimize.relative_sigma
          r.Psm_core.Optimize.correlation r.Psm_core.Optimize.upgraded)
      trained.Flow.optimize_reports
  end;
  Printf.printf "\nTimings: mining %.3fs, generation %.3fs, combination %.3fs\n"
    trained.Flow.timings.Flow.mine_s trained.Flow.timings.Flow.generate_s
    trained.Flow.timings.Flow.combine_s;
  if lint then begin
    Printf.printf "\nStatic analysis (%s):\n" (Report.summary trained.Flow.analysis);
    print_string (Report.text trained.Flow.analysis)
  end;
  Option.iter
    (fun path ->
      Psm_core.Dot.write_file ~name path psm;
      Printf.printf "Wrote %s\n" path)
    dot;
  Option.iter
    (fun path ->
      Psm_flow.Persist.save_file path trained;
      Printf.printf "Wrote %s\n" path)
    save

let generate_cmd =
  let length =
    Arg.(value & opt int 0
         & info [ "length"; "n" ] ~docv:"CYCLES"
             ~doc:"Training-suite length (0 = the paper's short-TS length).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print propositions.") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Mine PSMs for a benchmark IP")
    Term.(const (fun () -> generate) $ logs_arg $ ip_arg $ length
          $ parts_arg $ epsilon_arg $ dot_arg $ save_arg $ lint_flag $ verbose
          $ profile_arg)

(* ---- evaluate ---- *)

let evaluate name eval_length parts epsilon plot =
  let ip, trained = train ~name ~length:None ~parts ~epsilon in
  let long = Workloads.long_for ~length:eval_length name in
  let trace, reference = Capture.run ip long in
  let report, result =
    let result = Psm_hmm.Multi_sim.simulate trained.Flow.hmm trace in
    (Psm_hmm.Accuracy.of_result ~reference result, result)
  in
  Printf.printf "PSMs: %d states, %d transitions\n"
    (Psm.state_count trained.Flow.optimized)
    (Psm.transition_count trained.Flow.optimized);
  Format.printf "Accuracy on %d long-TS instants: %a@." eval_length Psm_hmm.Accuracy.pp
    report;
  Printf.printf "Resynchronization events: %d\n" result.Psm_hmm.Multi_sim.resync_events;
  Option.iter
    (fun basename ->
      Psm_flow.Plot.write ~basename ~title:(name ^ " power estimate") ~reference ~result;
      Printf.printf "Wrote %s.dat and %s.gp (render: gnuplot %s.gp)\n" basename basename
        basename)
    plot

let evaluate_cmd =
  let length =
    length_arg ~default:100_000 ~doc:"Evaluation (long-TS) length in cycles."
  in
  let plot =
    Arg.(value & opt (some string) None
         & info [ "plot" ] ~docv:"BASENAME" ~doc:"Write gnuplot artifacts.")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Short-TS training, long-TS accuracy evaluation")
    Term.(const evaluate $ ip_arg $ length $ parts_arg
          $ epsilon_arg $ plot)

(* ---- trace ---- *)

let capture_trace name length vcd csv saif =
  let ip = make_ip name in
  let stimulus = Workloads.suite ~parts:1 ~total_length:length ~long:false name in
  let trace, power = Capture.run ip (List.hd stimulus) in
  Printf.printf "Captured %d instants of %s (%d signals)\n" length name
    (Psm_trace.Interface.arity (Psm_trace.Functional_trace.interface trace));
  Option.iter
    (fun path ->
      Psm_trace.Vcd.write_file ~power path trace;
      Printf.printf "Wrote %s\n" path)
    vcd;
  Option.iter
    (fun path ->
      Psm_trace.Csv.write_file ~power path trace;
      Printf.printf "Wrote %s\n" path)
    csv;
  Option.iter
    (fun path ->
      Psm_trace.Saif.write_file ~design:name path trace;
      Printf.printf "Wrote %s\n" path)
    saif

let trace_cmd =
  let length = length_arg ~default:2000 ~doc:"Trace length in cycles." in
  let vcd =
    Arg.(value & opt (some string) None
         & info [ "vcd" ] ~docv:"FILE" ~doc:"Write the trace as VCD (with power).")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Write the trace as CSV (with power).")
  in
  let saif =
    Arg.(value & opt (some string) None
         & info [ "saif" ] ~docv:"FILE"
             ~doc:"Write the switching activity as SAIF backward annotation.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Capture a functional + power trace")
    Term.(const capture_trace $ ip_arg $ length $ vcd $ csv $ saif)

(* ---- train-vcd: the black-box path on external traces ---- *)

let unknowns_arg =
  let policies =
    [ ("zero", Psm_trace.Reader.Zero);
      ("error", Psm_trace.Reader.Reject);
      ("count", Psm_trace.Reader.Count) ]
  in
  Arg.(value & opt (enum policies) Psm_trace.Reader.Count
       & info [ "unknowns" ] ~docv:"POLICY"
           ~doc:"What to do with x/z bits: zero (coerce silently), error \
                 (reject the trace), count (coerce and report; default).")

let period_arg =
  Arg.(value & opt (some int) None
       & info [ "period" ] ~docv:"N"
           ~doc:"Sampling period in timescale units (default: GCD of the \
                 timestamp deltas).")

let print_ingest path (stats : Psm_trace.Reader.stats) =
  Format.printf "ingested %s: %a@." path Psm_trace.Reader.pp_stats stats

let train_vcd files dot unknowns period =
  let trained, ingested =
    try Flow.train_on_vcd_files ~unknowns ?period files
    with
    | Psm_trace.Vcd.Parse_error e ->
        Printf.eprintf "parse error: %s\n" (Psm_trace.Reader.error_to_string e);
        exit 1
    | Invalid_argument m ->
        Printf.eprintf "%s\n" m;
        exit 1
  in
  List.iter (fun (i : Flow.ingested) -> print_ingest i.Flow.path i.Flow.ingest) ingested;
  Format.printf "%a@." Psm.pp trained.Flow.optimized;
  (* Training-set accuracy, for a quick sanity read. *)
  List.iter
    (fun (i : Flow.ingested) ->
      let report, _ = Flow.evaluate trained i.Flow.functional ~reference:i.Flow.power in
      Format.printf "training trace (%d instants): %a@."
        (Psm_trace.Functional_trace.length i.Flow.functional)
        Psm_hmm.Accuracy.pp report)
    ingested;
  Option.iter
    (fun path ->
      Psm_core.Dot.write_file path trained.Flow.optimized;
      Printf.printf "Wrote %s\n" path)
    dot

let train_vcd_cmd =
  let files =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"VCD" ~doc:"Training VCD files (with embedded __power__).")
  in
  Cmd.v
    (Cmd.info "train-vcd"
       ~doc:"Mine PSMs from externally captured VCD traces (black-box mode)")
    Term.(const train_vcd $ files $ dot_arg $ unknowns_arg
          $ period_arg)

(* ---- train-stream: incremental black-box training, O(model) memory ---- *)

let train_stream files dot unknowns period checkpoint =
  let result =
    try Psm_flow.Stream_train.train_stream ~unknowns ~period ?checkpoint files
    with
    | Psm_trace.Vcd.Parse_error e ->
        Printf.eprintf "parse error: %s\n" (Psm_trace.Reader.error_to_string e);
        exit 1
    | Psm_flow.Stream_train.Too_many_samples { path; gap_from; gap_to; filled } ->
        Printf.eprintf
          "%s: timestamp gap #%d..#%d fills %d held samples, over the %d-sample limit\n"
          path gap_from gap_to filled Psm_trace.Vcd.max_samples;
        exit 1
    | Psm_flow.Stream_train.Checkpoint.Restore_error m | Invalid_argument m ->
        Printf.eprintf "%s\n" m;
        exit 1
  in
  Format.printf "%a@." Psm.pp result.Psm_flow.Stream_train.optimized;
  Printf.printf "streamed %d cycles over %d trace(s)\n"
    result.Psm_flow.Stream_train.cycles result.Psm_flow.Stream_train.traces_seen;
  Option.iter
    (fun path ->
      Psm_core.Dot.write_file path result.Psm_flow.Stream_train.optimized;
      Printf.printf "Wrote %s\n" path)
    dot

let train_stream_cmd =
  let files =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"VCD" ~doc:"Training VCD files (with embedded __power__).")
  in
  let stream_period =
    Arg.(value & opt int 1
         & info [ "period" ] ~docv:"N"
             ~doc:"Sampling period in timescale units (default 1; streaming \
                   cannot infer the GCD of the timestamp deltas up front).")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Save the trainer state to FILE after every completed \
                   input file; if FILE already exists, resume from it \
                   (re-run with the same file list).")
  in
  Cmd.v
    (Cmd.info "train-stream"
       ~doc:"Mine PSMs from VCD traces incrementally, without materializing \
             any trace in memory")
    Term.(const train_stream $ files $ dot_arg
          $ unknowns_arg $ stream_period $ checkpoint)

(* ---- apply: run a persisted model over recorded traces ---- *)

let apply model_path vcds unknowns period lint profile =
  with_profile profile @@ fun () ->
  let model = Psm_flow.Persist.load_file model_path in
  Printf.printf "Loaded model: %d states, %d transitions, %d propositions\n"
    (Psm.state_count model.Psm_flow.Persist.psm)
    (Psm.transition_count model.Psm_flow.Persist.psm)
    (Psm_mining.Prop_trace.Table.prop_count model.Psm_flow.Persist.table);
  if lint then begin
    let findings =
      Analyzer.analyze ~hmm:model.Psm_flow.Persist.hmm model.Psm_flow.Persist.psm
    in
    print_string (Report.text findings)
  end;
  List.iter
    (fun file ->
      let parsed =
        try Psm_trace.Vcd.parse_file ~unknowns ?period file
        with Psm_trace.Vcd.Parse_error e ->
          Printf.eprintf "%s: parse error: %s\n" file
            (Psm_trace.Reader.error_to_string e);
          exit 1
      in
      print_ingest file parsed.Psm_trace.Vcd.stats;
      let trace = parsed.Psm_trace.Vcd.trace in
      let result = Psm_hmm.Multi_sim.simulate model.Psm_flow.Persist.hmm trace in
      let estimate = result.Psm_hmm.Multi_sim.estimate in
      let total = Array.fold_left ( +. ) 0. estimate in
      Printf.printf "%s: %d instants, estimated energy %.6g J, WSP %.2f%%\n" file
        (Psm_trace.Functional_trace.length trace)
        total
        (100. *. result.Psm_hmm.Multi_sim.wsp);
      Format.printf "  %a@."
        Psm_flow.Coverage.pp
        (Psm_flow.Coverage.of_trace model.Psm_flow.Persist.hmm trace);
      match parsed.Psm_trace.Vcd.power with
      | Some reference ->
          let report = Psm_hmm.Accuracy.of_result ~reference result in
          Format.printf "  vs embedded reference: %a@." Psm_hmm.Accuracy.pp report
      | None -> ())
    vcds

let apply_cmd =
  let model =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc:"Persisted model.")
  in
  let vcds =
    Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"VCD" ~doc:"Traces to estimate.")
  in
  Cmd.v
    (Cmd.info "apply" ~doc:"Estimate power for recorded traces with a persisted model")
    Term.(const apply $ model $ vcds $ unknowns_arg
          $ period_arg $ lint_flag $ profile_arg)

(* ---- stats: run-length structure of a trace ---- *)

module Runs = Psm_trace.Runs

let print_run_stats label runs =
  Printf.printf
    "%s: %d cycles in %d run(s), compression %.4f (mean run %.2f, max run %d)\n"
    label (Runs.total runs) (Runs.count runs) (Runs.compression runs)
    (Runs.mean_run runs) (Runs.max_run runs);
  if Runs.count runs > 0 then begin
    Printf.printf "  run-length histogram:\n";
    List.iter
      (fun (b, c) ->
        Printf.printf "    [%7d, %7d): %d\n" (1 lsl b) (1 lsl (b + 1)) c)
      (Runs.histogram runs)
  end

let json_of_runs runs =
  Printf.sprintf
    "{\"cycles\":%d,\"runs\":%d,\"compression\":%.6f,\"mean_run\":%.6f,\
     \"max_run\":%d,\"histogram\":[%s]}"
    (Runs.total runs) (Runs.count runs) (Runs.compression runs)
    (Runs.mean_run runs) (Runs.max_run runs)
    (String.concat ","
       (List.map
          (fun (b, c) -> Printf.sprintf "[%d,%d]" (1 lsl b) c)
          (Runs.histogram runs)))

let stats_run model_path trace_file unknowns period json_path =
  let parsed =
    try Psm_trace.Vcd.parse_file ~unknowns ?period trace_file
    with Psm_trace.Vcd.Parse_error e ->
      Printf.eprintf "%s: parse error: %s\n" trace_file
        (Psm_trace.Reader.error_to_string e);
      exit 1
  in
  print_ingest trace_file parsed.Psm_trace.Vcd.stats;
  let trace = parsed.Psm_trace.Vcd.trace in
  let runs = Psm_trace.Functional_trace.runs trace in
  print_run_stats "samples" runs;
  let prop_runs =
    Option.map
      (fun path ->
        let model = Psm_flow.Persist.load_file path in
        let table = model.Psm_flow.Persist.table in
        let n = Psm_trace.Functional_trace.length trace in
        (* One classification per sample run; unmatched rows code to -1. *)
        let codes = Array.make n (-1) in
        Psm_mining.Sample_tracker.iter_runs table trace
          (fun ~start ~len ~code ~distance:_ -> Array.fill codes start len code);
        let prop_runs = Runs.scan ~equal:(fun i j -> codes.(i) = codes.(j)) n in
        print_run_stats "proposition segments" prop_runs;
        prop_runs)
      model_path
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc "{\"trace\":%s,\"samples\":%s%s}\n"
        (Printf.sprintf "%S" trace_file)
        (json_of_runs runs)
        (match prop_runs with
        | None -> ""
        | Some pr -> ",\"prop_segments\":" ^ json_of_runs pr);
      close_out oc;
      Printf.printf "Wrote %s\n" path)
    json_path

let stats_cmd =
  let model =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"MODEL"
             ~doc:"Persisted model; adds the proposition-segment view (how \
                   the mined atoms compact the trace).")
  in
  let trace =
    Arg.(required & opt (some file) None
         & info [ "trace" ] ~docv:"VCD" ~doc:"Trace to analyze.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the statistics as JSON.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run-length structure of a trace: compression ratio and run \
             histogram, the quantities the RLE pipeline paths exploit")
    Term.(const stats_run $ model $ trace $ unknowns_arg
          $ period_arg $ json)

(* ---- lint: static analysis of a persisted model ---- *)

let lint_run model_path json strict rules profile =
  with_profile profile @@ fun () ->
  let model =
    try Psm_flow.Persist.load_file model_path
    with Psm_flow.Persist.Parse_error msg ->
      Printf.eprintf "%s: %s\n" model_path msg;
      exit 2
  in
  let config =
    { Analyzer.default with
      Analyzer.rules = (match rules with [] -> None | names -> Some names) }
  in
  let findings =
    try
      Analyzer.analyze ~config ~hmm:model.Psm_flow.Persist.hmm
        model.Psm_flow.Persist.psm
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  if json then print_string (Psm_analysis.Report.json findings)
  else print_string (Psm_analysis.Report.text findings);
  if strict && Psm_analysis.Finding.errors findings <> [] then exit 1

let lint_cmd =
  let model =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc:"Persisted model.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit with status 1 if any error-severity finding is reported.")
  in
  let rules =
    let available =
      String.concat ", "
        (List.map
           (fun (r : Psm_analysis.Rule.t) -> r.Psm_analysis.Rule.name)
           (Analyzer.rules ()))
    in
    Arg.(value & opt (list string) []
         & info [ "rules" ] ~docv:"NAMES"
             ~doc:(Printf.sprintf
                     "Run only these rules (comma-separated; default: all). \
                      Unknown names are rejected with the registry listing. \
                      Available: %s."
                     available))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze a persisted model (determinism, reachability, \
             power-attribute sanity, HMM stochasticity, symbolic static-* \
             proofs)")
    Term.(const (fun () -> lint_run) $ logs_arg $ model $ json $ strict $ rules
          $ profile_arg)

(* ---- verify: symbolic verification of a persisted model ---- *)

let verify_run model_path json strict coverage_budget max_gaps profile =
  with_profile profile @@ fun () ->
  let model =
    try Psm_flow.Persist.load_file model_path
    with Psm_flow.Persist.Parse_error msg ->
      Printf.eprintf "%s: %s\n" model_path msg;
      exit 2
  in
  let report =
    Psm_verify.Verify.run ?coverage_budget ?max_gaps model.Psm_flow.Persist.psm
  in
  if json then print_string (Psm_verify.Verify.json report)
  else print_string (Psm_verify.Verify.text report);
  if strict && Psm_verify.Verify.errors report <> [] then exit 1

let verify_cmd =
  let model =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc:"Persisted model.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit with status 1 if any error-severity finding is proved.")
  in
  let coverage_budget =
    Arg.(value & opt (some int) None
         & info [ "coverage-budget" ] ~docv:"N"
             ~doc:"Node budget for the coverage-gap search (default 4096).")
  in
  let max_gaps =
    Arg.(value & opt (some int) None
         & info [ "max-gaps" ] ~docv:"N"
             ~doc:"Maximum coverage gaps to report (default 4).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Symbolically verify a persisted model over the atom theory: \
             prove proposition feasibility/disjointness, guard determinism, \
             input coverage and assertion non-vacuity, with counterexample \
             witness valuations")
    Term.(const (fun () -> verify_run) $ logs_arg $ model $ json $ strict
          $ coverage_budget $ max_gaps $ profile_arg)

(* ---- diff: semantic model comparison ---- *)

let diff_run path_a path_b epsilon =
  let load path =
    try Psm_flow.Persist.load_file path
    with Psm_flow.Persist.Parse_error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 2
  in
  let a = load path_a and b = load path_b in
  let r =
    Psm_verify.Verify.equiv ~epsilon a.Psm_flow.Persist.psm
      b.Psm_flow.Persist.psm
  in
  (match r.Psm_verify.Verify.mismatch with
  | Some msg -> Printf.printf "incomparable: %s\n" msg
  | None ->
      Printf.printf "%d bisimulation classes\n"
        (List.length r.Psm_verify.Verify.blocks);
      let show what = function
        | [] -> ()
        | ids ->
            Printf.printf "%s: %s\n" what
              (String.concat ", " (List.map (Printf.sprintf "s%d") ids))
      in
      show "only in A" r.Psm_verify.Verify.only_left;
      show "only in B" r.Psm_verify.Verify.only_right;
      if not r.Psm_verify.Verify.initial_match then
        Printf.printf "initial-state multisets differ\n");
  if r.Psm_verify.Verify.equivalent then
    Printf.printf "models are bisimilar (power-label-aware)\n"
  else begin
    Printf.printf "models differ\n";
    exit 1
  end

let diff_cmd =
  let model idx name =
    Arg.(required & pos idx (some file) None & info [] ~docv:name ~doc:"Persisted model.")
  in
  let epsilon =
    Arg.(value & opt float 1e-9
         & info [ "epsilon" ] ~docv:"EPS"
             ~doc:"Power-label tolerance for the initial partition.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Semantically compare two persisted models: power-label-aware \
             partition-refinement bisimulation, indifferent to state \
             numbering and merge history (exit 1 when they differ)")
    Term.(const diff_run $ model 0 "A" $ model 1 "B" $ epsilon)

(* ---- netlist: export / report the structural netlists ---- *)

let netlist_cmd_run name verilog stats =
  match Psm_ips.Structural.netlist_for name with
  | None ->
      Printf.eprintf "no structural netlist for %s (available: %s)\n" name
        (String.concat ", " Psm_ips.Structural.available);
      exit 1
  | Some build ->
      let nl = build () in
      if stats then
        Format.printf "%a@." Psm_rtl.Netlist_stats.pp (Psm_rtl.Netlist_stats.analyze nl);
      Option.iter
        (fun path ->
          Psm_rtl.Verilog.write_file path nl;
          Printf.printf "Wrote %s\n" path)
        verilog

let netlist_cmd =
  let ip_name_arg =
    Arg.(required
         & pos 0 (some (enum (List.map (fun n -> (n, n)) Psm_ips.Structural.available)))
             None
         & info [] ~docv:"IP" ~doc:"IP with a structural netlist.")
  in
  let verilog =
    Arg.(value & opt (some string) None
         & info [ "verilog" ] ~docv:"FILE" ~doc:"Export as structural Verilog.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print gate/depth/fanout statistics.")
  in
  Cmd.v
    (Cmd.info "netlist" ~doc:"Export or report a gate-level netlist")
    Term.(const netlist_cmd_run $ ip_name_arg $ verilog $ stats)

(* ---- serve: the multi-session estimation daemon ---- *)

let load_model_or_exit path =
  try Psm_flow.Persist.load_file path
  with Psm_flow.Persist.Parse_error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2

let serve_run () model_specs socket port idle_timeout =
  let parse_spec spec =
    match String.index_opt spec '=' with
    | Some i ->
        ( String.sub spec 0 i,
          String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> (Filename.remove_extension (Filename.basename spec), spec)
  in
  let models =
    List.map
      (fun spec ->
        let name, path = parse_spec spec in
        (name, load_model_or_exit path))
      model_specs
  in
  let listen =
    match (socket, port) with
    | Some _, Some _ ->
        Printf.eprintf "serve: --socket and --port are mutually exclusive\n";
        exit 2
    | Some path, None -> `Unix path
    | None, Some p -> `Tcp p
    | None, None -> `Tcp 0
  in
  let server =
    try
      Psm_serve.Server.create ~idle_timeout ~listen models
    with
    | Invalid_argument msg | Failure msg ->
        Printf.eprintf "serve: %s\n" msg;
        exit 2
    | Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "serve: %s: %s %s\n" fn (Unix.error_message e) arg;
        exit 2
  in
  (match listen with
  | `Unix path ->
      Printf.printf "psmgen serve: listening on %s (%d models)\n%!" path
        (List.length models)
  | `Tcp _ ->
      Printf.printf "psmgen serve: listening on 127.0.0.1:%d (%d models)\n%!"
        (Psm_serve.Server.port server)
        (List.length models));
  Psm_serve.Server.run server

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket.")

let port_arg ~doc =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let models =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"MODEL"
             ~doc:"Persisted models to serve, as NAME=PATH or PATH (the name \
                   defaults to the file's basename without extension).")
  in
  let idle_timeout =
    Arg.(value & opt float 300.
         & info [ "idle-timeout" ] ~docv:"SECS"
             ~doc:"Evict sessions idle for longer than this (0 disables).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve persisted models to concurrent estimation sessions over a \
             line-delimited JSON protocol (Unix or loopback TCP socket); \
             co-resident sessions on the same model advance in batched \
             sparse forward sweeps")
    Term.(const serve_run $ logs_arg $ models
          $ socket_arg
          $ port_arg
              ~doc:"Listen on loopback TCP (0 or omitted picks an ephemeral \
                    port, printed at startup)."
          $ idle_timeout)

(* ---- serve-drive: a protocol client for CI and smoke tests ---- *)

module Sjson = Psm_serve.Json

let serve_drive_run () socket port sessions cycles mode shutdown seed =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "serve-drive: %s\n" msg;
        exit 1)
      fmt
  in
  let fd =
    try
      match (socket, port) with
      | Some path, None ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          fd
      | None, Some p ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
          fd
      | _ ->
          Printf.eprintf "serve-drive: exactly one of --socket/--port is required\n";
          exit 2
    with Unix.Unix_error (e, fn, arg) ->
      fail "connect: %s: %s %s" fn (Unix.error_message e) arg
  in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rpc line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | line -> line
    | exception End_of_file -> fail "server closed the connection"
  in
  let expect_ok line =
    match Sjson.of_string line with
    | Error e -> fail "bad response JSON (%s): %s" e line
    | Ok json -> (
        match Option.bind (Sjson.member "ok" json) Sjson.to_bool with
        | Some true -> json
        | _ -> fail "server error: %s" line)
  in
  let hello = expect_ok (rpc {|{"op":"hello"}|}) in
  let models =
    match Option.bind (Sjson.member "models" hello) Sjson.to_list with
    | None | Some [] -> fail "server advertises no models"
    | Some models ->
        List.map
          (fun m ->
            match
              ( Option.bind (Sjson.member "name" m) Sjson.to_string_opt,
                Option.bind (Sjson.member "props" m) Sjson.to_int )
            with
            | Some name, Some props -> (name, props)
            | _ -> fail "malformed model entry in hello response")
          models
  in
  let nmodels = List.length models in
  let rng = Random.State.make [| seed |] in
  let session_name s = Printf.sprintf "drive-%d" s in
  for s = 0 to sessions - 1 do
    let model, _ = List.nth models (s mod nmodels) in
    let line =
      Sjson.to_string
        (Sjson.Obj
           [ ("op", Sjson.Str "open");
             ("session", Sjson.Str (session_name s));
             ("model", Sjson.Str model);
             ("mode", Sjson.Str mode) ])
    in
    ignore (expect_ok (rpc line))
  done;
  let served = ref 0 in
  let chunk = 32 in
  let remaining = Array.make (max 1 sessions) cycles in
  let continue = ref (sessions > 0) in
  while !continue do
    continue := false;
    for s = 0 to sessions - 1 do
      if remaining.(s) > 0 then begin
        let n = min chunk remaining.(s) in
        remaining.(s) <- remaining.(s) - n;
        if remaining.(s) > 0 then continue := true;
        let _, props = List.nth models (s mod nmodels) in
        let obs =
          List.init n (fun _ ->
              if props = 0 || Random.State.int rng 8 = 0 then Sjson.Null
              else Sjson.Num (float_of_int (Random.State.int rng props)))
        in
        let line =
          Sjson.to_string
            (Sjson.Obj
               [ ("op", Sjson.Str "observe");
                 ("session", Sjson.Str (session_name s));
                 ("props", Sjson.List obs) ])
        in
        let resp = expect_ok (rpc line) in
        (match Option.bind (Sjson.member "cycles" resp) Sjson.to_int with
        | Some c when c = n -> served := !served + c
        | Some c -> fail "session %s: served %d cycles, expected %d" (session_name s) c n
        | None -> fail "observe response missing \"cycles\"");
        match
          Option.map List.length
            (Option.bind (Sjson.member "power" resp) Sjson.to_list)
        with
        | Some p when p = n -> ()
        | _ -> fail "observe response power array mismatch"
      end
    done
  done;
  let stats = expect_ok (rpc {|{"op":"stats"}|}) in
  let stat name =
    match Option.bind (Sjson.member name stats) Sjson.to_int with
    | Some v -> v
    | None -> fail "stats response missing %S" name
  in
  if stat "cycles_served" < !served then
    fail "server reports %d cycles served, client counted %d"
      (stat "cycles_served") !served;
  for s = 0 to sessions - 1 do
    let line =
      Sjson.to_string
        (Sjson.Obj
           [ ("op", Sjson.Str "close");
             ("session", Sjson.Str (session_name s)) ])
    in
    ignore (expect_ok (rpc line))
  done;
  if shutdown then ignore (expect_ok (rpc {|{"op":"shutdown"}|}));
  close_in_noerr ic;
  Printf.printf
    "serve-drive: %d sessions x %d cycles over %d models ok (%d cycles, %d sweeps)\n"
    sessions cycles nmodels !served (stat "sweeps")

let serve_drive_cmd =
  let sessions =
    Arg.(value & opt int 8
         & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent sessions to open.")
  in
  let cycles =
    Arg.(value & opt int 256
         & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to stream per session.")
  in
  let mode =
    Arg.(value & opt (enum [ ("filter", "filter"); ("sim", "sim") ]) "filter"
         & info [ "mode" ] ~docv:"MODE" ~doc:"Session mode (filter or sim).")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Send a shutdown request when done.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  Cmd.v
    (Cmd.info "serve-drive"
       ~doc:"Drive a running 'psmgen serve' daemon: open sessions round-robin \
             across every advertised model, stream seeded random \
             observations, verify every response, and exit 1 on any protocol \
             or server error (a CI smoke client)")
    Term.(const serve_drive_run $ logs_arg $ socket_arg
          $ port_arg ~doc:"Connect to a loopback TCP daemon." $ sessions
          $ cycles $ mode $ shutdown $ seed)

(* ---- info ---- *)

let info_all () =
  List.iter
    (fun name ->
      let ip = make_ip name in
      Format.printf "%a@." Psm_ips.Ip.pp ip;
      List.iter
        (fun s -> Format.printf "    %a@." Psm_trace.Signal.pp s)
        (Psm_ips.Ip.input_signals ip @ Psm_ips.Ip.output_signals ip))
    ip_names

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"List benchmark IPs and their interfaces")
    Term.(const info_all $ const ())

let () =
  let doc = "automatic generation of power state machines (DATE 2016 reproduction)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "psmgen" ~version:"1.0.0" ~doc)
                    [ generate_cmd; evaluate_cmd; trace_cmd; train_vcd_cmd;
                      train_stream_cmd; apply_cmd; stats_cmd; serve_cmd;
                      serve_drive_cmd; lint_cmd; verify_cmd; diff_cmd;
                      netlist_cmd; info_cmd ]))
