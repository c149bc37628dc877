(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, runs the design-choice ablations called out in
   DESIGN.md, and micro-benchmarks the core operations with Bechamel.

   Usage:
     main.exe [table1|table2|table3|figs|ablations|ingest|analyze|verify|evaluate|profile|stream|serve|micro|all]
              [--paper] [--json FILE]

   Default (no arguments): everything, with the long-TS/evaluation lengths
   scaled down to 120k instants so the full run completes in minutes.
   [--paper] restores the paper's 500000-instant workloads.

   [--json FILE] additionally writes per-stage wall-clock timings to FILE;
   when PSM_JOBS > 1 the requested stages are re-run (silenced) with the
   domain pool forced to one job, so the file also records the measured
   speedup of the parallel fan-out over the sequential baseline. *)

module Experiment = Psm_flow.Experiment
module Report = Psm_flow.Report
module Flow = Psm_flow.Flow
module Workloads = Psm_ips.Workloads
module Psm = Psm_core.Psm
module Table = Psm_mining.Prop_trace.Table

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* ---------- Tables ---------- *)

let run_table1 () =
  section "Table I: characteristics of benchmarks";
  print_string (Report.table1 (Experiment.table1 ()))

let run_table2 ~long_length () =
  section
    (Printf.sprintf "Table II: characteristics of the generated PSMs (long-TS = %d)"
       long_length);
  print_string (Report.table2 (Experiment.table2 ~long_length ()));
  Printf.printf
    "(MRE on the training testset; PX = reference power simulation time;\n\
    \ short-TS lengths are the paper's: RAM 34130, MultSum 12002, AES 16504,\n\
    \ Camellia 78004.)\n"

let run_table3 ~eval_length () =
  section
    (Printf.sprintf
       "Table III: simulation times and accuracy (PSMs from short-TS, %d instants)"
       eval_length);
  print_string (Report.table3 (Experiment.table3 ~eval_length ()))

(* ---------- Figures ---------- *)

let run_figs () =
  section "Fig. 2: example power state machine (off / idle / on)";
  print_string (Psm_core.Dot.to_string ~name:"fig2" ~show_sigma:false (Experiment.fig2_psm ()));
  section "Fig. 3: functional trace -> proposition trace";
  let fig3 = Experiment.fig3_example () in
  for p = 0 to Table.prop_count fig3.Experiment.table - 1 do
    Format.printf "%a@." (Table.pp_prop fig3.Experiment.table) p
  done;
  Format.printf "%a@." Psm_mining.Prop_trace.pp fig3.Experiment.gamma;
  section "Fig. 5: the XU automaton run and the generated PSM";
  let xu = Psm_core.Xu.initialize fig3.Experiment.gamma in
  let name = Table.name fig3.Experiment.table in
  let rec walk () =
    match Psm_core.Xu.get_assertion xu with
    | Some (pattern, start, stop) ->
        let rendered =
          match pattern with
          | Psm_core.Xu.Until (p, q) -> Printf.sprintf "%s U %s" (name p) (name q)
          | Psm_core.Xu.Next (p, q) -> Printf.sprintf "%s X %s" (name p) (name q)
        in
        Printf.printf "  <%s, %d, %d>\n" rendered start stop;
        walk ()
    | None -> ()
  in
  walk ();
  let psm = Experiment.fig5_psm fig3 in
  Format.printf "%a@." Psm.pp psm;
  print_string (Psm_core.Dot.to_string ~name:"fig5" psm)

(* ---------- Ablations ---------- *)

let ablation_flow ?(config = Flow.default) name ~make ~eval_length =
  let ip = make () in
  let suite =
    Workloads.suite ~total_length:(Workloads.paper_short_length name) ~long:false name
  in
  let trained = Flow.train_on_ip ~config ip suite in
  let long = Workloads.long_for ~length:eval_length name in
  let report, result = Flow.evaluate_on_ip trained ip long in
  (trained, report, result)

let run_ablation_epsilon ~eval_length () =
  section "Ablation: merge tolerance epsilon (RAM)";
  let rows =
    Psm_par.parallel_map
      (fun epsilon ->
        let config =
          { Flow.default with
            merge = { Psm_core.Merge.default with epsilon } }
        in
        let trained, report, _ =
          ablation_flow ~config "RAM" ~make:Psm_ips.Ram.create ~eval_length
        in
        [ Printf.sprintf "%.2f" epsilon;
          string_of_int (Psm.state_count trained.Flow.optimized);
          string_of_int (Psm.transition_count trained.Flow.optimized);
          Report.percent report.Psm_hmm.Accuracy.mre ])
      [ 0.02; 0.05; 0.15; 0.30; 0.60 ]
  in
  print_string (Report.render_table ~header:[ "epsilon"; "States"; "Trans."; "MRE" ] rows)

let run_ablation_regression ~eval_length () =
  section "Ablation: data-dependent-state regression on/off (RAM, MultSum)";
  let cases =
    List.concat_map
      (fun (name, make) ->
        List.map
          (fun (label, sigma_threshold) -> (name, make, label, sigma_threshold))
          [ ("on (sigma/mu > 0.05)", 0.05); ("off", infinity) ])
      [ ("RAM", Psm_ips.Ram.create); ("MultSum", Psm_ips.Multsum.create) ]
  in
  let rows =
    Psm_par.parallel_map
      (fun (name, make, label, sigma_threshold) ->
        let config =
          { Flow.default with
            optimize = { Psm_core.Optimize.default with sigma_threshold } }
        in
        let _, report, _ = ablation_flow ~config name ~make ~eval_length in
        [ name; label; Report.percent report.Psm_hmm.Accuracy.mre ])
      cases
  in
  print_string (Report.render_table ~header:[ "IP"; "Regression"; "MRE" ] rows)

let run_ablation_scrubber ~eval_length () =
  section "Ablation: Camellia hidden-subcomponent scrubber";
  let rows =
    Psm_par.parallel_map
      (fun (label, make) ->
        let _, report, result =
          ablation_flow "Camellia" ~make ~eval_length
        in
        [ label; Report.percent report.Psm_hmm.Accuracy.mre;
          Report.percent result.Psm_hmm.Multi_sim.wsp ])
      [ ("on", Psm_ips.Camellia.create); ("off", Psm_ips.Camellia.create_without_scrubber) ]
  in
  print_string (Report.render_table ~header:[ "Scrubber"; "MRE"; "WSP" ] rows);
  Printf.printf
    "(Same mean hidden power in both rows; only the on-row has the\n\
    \ PI/PO-uncorrelated variance the paper blames for Camellia's MRE.)\n"

let run_ablation_resync ~eval_length () =
  section "Ablation: HMM resynchronization on/off (AES, encrypt-only training)";
  (* Deliberately incomplete training traces: every decrypt bit cleared, so
     decryption blocks in the evaluation workload are unknown behaviour
     (paper Sec. V: incomplete functional traces). *)
  let ip = Psm_ips.Aes.create () in
  let suite =
    Workloads.suite ~parts:4 ~total_length:12000 ~long:false "AES"
    |> List.map
         (Array.map (fun sample ->
              let sample = Array.copy sample in
              sample.(3) <- Psm_bits.Bits.zero 1;
              sample))
  in
  let trained = Flow.train_on_ip ip suite in
  let long = Workloads.long_for ~length:eval_length "AES" in
  let trace, reference = Psm_ips.Capture.run ip long in
  let rows =
    List.map
      (fun (label, resync_enabled) ->
        let config = { Psm_hmm.Multi_sim.default with resync_enabled } in
        let result = Psm_hmm.Multi_sim.simulate ~config trained.Flow.hmm trace in
        let report = Psm_hmm.Accuracy.of_result ~reference result in
        [ label; Report.percent report.Psm_hmm.Accuracy.mre;
          Report.percent result.Psm_hmm.Multi_sim.wsp;
          string_of_int result.Psm_hmm.Multi_sim.resync_events ])
      [ ("on", true); ("off", false) ]
  in
  print_string
    (Report.render_table ~header:[ "Resync"; "MRE"; "WSP"; "Resync events" ] rows)

let run_ablation_structural ~eval_length () =
  section "Ablation: reference power granularity (training on gate-level toggles)";
  let case ip_name label make =
    let trained, report, _ = ablation_flow ip_name ~make ~eval_length in
    let upgraded =
      List.exists (fun r -> r.Psm_core.Optimize.upgraded) trained.Flow.optimize_reports
    in
    [ ip_name; label; Report.percent report.Psm_hmm.Accuracy.mre;
      (if upgraded then "yes" else "no") ]
  in
  let rows =
    Psm_par.parallel_map
      (fun (ip_name, label, make) -> case ip_name label make)
      [ ("MultSum", "behavioural activity model", Psm_ips.Multsum.create);
        ("MultSum", "gate-level net toggles", Psm_ips.Multsum.create_structural);
        ("RAM", "behavioural activity model", Psm_ips.Ram.create);
        ("RAM", "gate-level net toggles", Psm_ips.Ram_gates.create) ]
  in
  print_string
    (Report.render_table ~header:[ "IP"; "Reference"; "MRE"; "Regression fired" ] rows);
  print_endline
    "(At gate granularity the multiplier array's value-dependent carry\n\
    \ activity dominates; the Hamming-distance regression cannot explain it\n\
    \ -- the same 'wider time window' limitation the paper reports for\n\
    \ MultSum, amplified.)"


let run_decoders ~eval_length () =
  section "Extension: online filtering vs offline Viterbi decoding";
  let rows =
    Psm_par.parallel_map
      (fun (name, make) ->
        let ip : Psm_ips.Ip.t = make () in
        let suite =
          Workloads.suite ~total_length:(Workloads.paper_short_length name) ~long:false
            name
        in
        let trained = Flow.train_on_ip ip suite in
        let long = Workloads.long_for ~length:eval_length name in
        let trace, reference = Psm_ips.Capture.run ip long in
        let online, _ = Flow.evaluate trained trace ~reference in
        let offline = Psm_hmm.Offline.evaluate trained.Flow.hmm trace ~reference in
        [ name; Report.percent online.Psm_hmm.Accuracy.mre;
          Report.percent offline.Psm_hmm.Accuracy.mre ])
      [ ("AES", Psm_ips.Aes.create); ("Camellia", Psm_ips.Camellia.create) ]
  in
  print_string
    (Report.render_table ~header:[ "IP"; "Online (causal) MRE"; "Viterbi (offline) MRE" ]
       rows)

let run_baselines ~eval_length () =
  section "Baselines: constant power and hand-written two-state PSM vs mined PSMs";
  let rows =
    Psm_par.parallel_map
      (fun (name, make, control) ->
        let ip : Psm_ips.Ip.t = make () in
        let suite =
          Workloads.suite ~total_length:(Workloads.paper_short_length name) ~long:false
            name
        in
        let pairs = List.map (Psm_ips.Capture.run ip) suite in
        let constant = Psm_flow.Baselines.Constant.train (List.map snd pairs) in
        let two_state = Psm_flow.Baselines.Two_state.train ~control pairs in
        let trained =
          Flow.train ~traces:(List.map fst pairs) ~powers:(List.map snd pairs) ()
        in
        let long = Workloads.long_for ~length:eval_length name in
        let trace, reference = Psm_ips.Capture.run ip long in
        let c = Psm_flow.Baselines.Constant.evaluate constant ~reference in
        let t2 = Psm_flow.Baselines.Two_state.evaluate two_state trace ~reference in
        let mined, _ = Flow.evaluate trained trace ~reference in
        [ name; Report.percent c.Psm_hmm.Accuracy.mre;
          Report.percent t2.Psm_hmm.Accuracy.mre;
          Report.percent mined.Psm_hmm.Accuracy.mre ])
      [ ("RAM", Psm_ips.Ram.create, "ce"); ("MultSum", Psm_ips.Multsum.create, "en");
        ("AES", Psm_ips.Aes.create, "enable");
        ("Camellia", Psm_ips.Camellia.create, "enable") ]
  in
  print_string
    (Report.render_table
       ~header:[ "IP"; "Constant MRE"; "Two-state MRE"; "Mined PSMs MRE" ]
       rows)

let run_hierarchical ~eval_length () =
  section "Future work (paper Sec. VII): hierarchical PSMs on Camellia";
  let suite = Workloads.suite ~total_length:78004 ~long:false "Camellia" in
  let long = Workloads.long_for ~length:eval_length "Camellia" in
  let ip = Psm_ips.Camellia.create () in
  let flat = Flow.train_on_ip ip suite in
  let flat_report, _ = Flow.evaluate_on_ip flat ip long in
  let d = Psm_ips.Camellia.create_decomposed () in
  let hier = Psm_flow.Hier.train d suite in
  let hier_report = Psm_flow.Hier.evaluate hier d long in
  print_string
    (Report.render_table ~header:[ "Model"; "States"; "MRE" ]
       [ [ "flat PSMs (the paper's result)";
           string_of_int (Psm.state_count flat.Flow.optimized);
           Report.percent flat_report.Psm_hmm.Accuracy.mre ];
         [ "hierarchical PSMs (datapath + scrubber)";
           string_of_int (Psm_flow.Hier.total_states hier);
           Report.percent hier_report.Psm_hmm.Accuracy.mre ] ]);
  print_endline
    "(One PSM set per subcomponent, trained on that subcomponent's boundary\n\
    \ observations: the scrubber's utilization level, invisible at the top\n\
    \ level, is a plain mineable signal at its own boundary.)"

let run_ablations ~eval_length () =
  run_ablation_epsilon ~eval_length ();
  run_ablation_regression ~eval_length ();
  run_ablation_scrubber ~eval_length ();
  run_ablation_resync ~eval_length ();
  run_ablation_structural ~eval_length:(min eval_length 20_000) ();
  run_baselines ~eval_length ();
  run_decoders ~eval_length ();
  run_hierarchical ~eval_length ()

(* ---------- Ingestion throughput and memory ---------- *)

(* Filled by [run_ingest], folded into the --json report. *)
let ingest_metrics : (string * float) list ref = ref []

let run_ingest () =
  section "Ingestion: streaming VCD reader throughput and memory";
  (* Fixtures: the same RAM workload at two lengths, written to disk and
     the in-RAM capture dropped, so the parser is the only thing holding
     trace data. *)
  let fixture cycles =
    let ip = Psm_ips.Ram.create () in
    let stim = Workloads.ram_short ~length:cycles () in
    let trace, power = Psm_ips.Capture.run ip stim in
    let path = Filename.temp_file (Printf.sprintf "ingest%d" cycles) ".vcd" in
    Psm_trace.Vcd.write_file ~power path trace;
    path
  in
  let small_cycles = 10_000 and large_cycles = 100_000 in
  let small_path = fixture small_cycles in
  let large_path = fixture large_cycles in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove small_path;
      Sys.remove large_path)
  @@ fun () ->
  Gc.compact ();
  (* Throughput: channel-streamed full parse of the 100k-cycle fixture. *)
  let t0 = Unix.gettimeofday () in
  let parsed = Psm_trace.Vcd.parse_file large_path in
  let parse_s = Unix.gettimeofday () -. t0 in
  let bytes = parsed.Psm_trace.Vcd.stats.Psm_trace.Reader.bytes in
  let mib = float_of_int bytes /. (1024. *. 1024.) in
  let mb_s = mib /. parse_s in
  assert (Psm_trace.Functional_trace.length parsed.Psm_trace.Vcd.trace = large_cycles);
  Printf.printf "parse_file %d cycles: %.2f MiB in %.3f s = %.1f MiB/s\n" large_cycles
    mib parse_s mb_s;
  (* The run structure is built incrementally by the reader's trace
     builder, so it is already materialized here — no extra pass. *)
  let runs = Psm_trace.Functional_trace.runs parsed.Psm_trace.Vcd.trace in
  Printf.printf "run structure: %d run(s), compression %.4f (mean run %.2f)\n"
    (Psm_trace.Runs.count runs)
    (Psm_trace.Runs.compression runs)
    (Psm_trace.Runs.mean_run runs);
  (* Parallel in-memory parse: same result, chunked across the pool. *)
  let text =
    let ic = open_in large_path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let t0 = Unix.gettimeofday () in
  let par = Psm_trace.Vcd.parse ~parallel:true text in
  let par_s = Unix.gettimeofday () -. t0 in
  let par_mb_s = mib /. par_s in
  assert (
    Psm_trace.Functional_trace.equal parsed.Psm_trace.Vcd.trace
      par.Psm_trace.Vcd.trace);
  Printf.printf "parse ~parallel:true (%d jobs): %.3f s = %.1f MiB/s\n"
    (Psm_par.effective_jobs ()) par_s par_mb_s;
  (* Memory: peak live heap while push-streaming (nothing retained by the
     consumer), sampled every 16k samples. Constant-memory ingestion
     means the peak is independent of the trace length. *)
  let peak_live path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    Gc.compact ();
    let peak = ref 0 and count = ref 0 in
    let sample ~time:_ _values ~power:_ =
      incr count;
      if !count land 0x7FF = 0 then begin
        let live = (Gc.stat ()).Gc.live_words in
        if live > !peak then peak := live
      end
    in
    let stats =
      Psm_trace.Vcd.stream (Psm_trace.Reader.of_channel ic) ~init:(fun _ -> ()) ~sample
    in
    ignore stats;
    max !peak 1
  in
  let small_peak = peak_live small_path in
  let large_peak = peak_live large_path in
  let ratio = float_of_int large_peak /. float_of_int small_peak in
  Printf.printf
    "stream peak live heap: %d words at %d cycles, %d words at %d cycles (x%.2f)\n"
    small_peak small_cycles large_peak large_cycles ratio;
  ingest_metrics :=
    [ ("vcd_bytes", float_of_int bytes);
      ("cycles", float_of_int large_cycles);
      ("parse_file_seconds", parse_s);
      ("parse_file_mib_per_s", mb_s);
      ("parallel_parse_seconds", par_s);
      ("parallel_parse_mib_per_s", par_mb_s);
      ("stream_peak_live_words_10k", float_of_int small_peak);
      ("stream_peak_live_words_100k", float_of_int large_peak);
      ("stream_peak_ratio_100k_vs_10k", ratio);
      ("run_compression", Psm_trace.Runs.compression runs);
      ("mean_run_length", Psm_trace.Runs.mean_run runs) ]

(* ---------- Static analyzer throughput ---------- *)

(* Filled by [run_analyze], folded into the --json report. *)
let analyze_metrics : (string * float) list ref = ref []

let run_analyze () =
  section "Static analysis: full-context lint of the trained models";
  (* Reset: stages re-run for the --json jobs=1 baseline, and stale
     entries would otherwise duplicate keys in the report (the BENCH_5
     bug: a second silenced run polluting the metric block). *)
  analyze_metrics := [];
  let repeats = 10 in
  let rows =
    List.map
      (fun (name, make) ->
        let ip : Psm_ips.Ip.t = make () in
        let suite = Workloads.suite ~total_length:12_000 ~long:false name in
        let trained = Flow.train_on_ip ip suite in
        (* Full-context lint: PSM + HMM + the training gammas and powers,
           re-deriving the proposition traces each run, exactly what the
           flow pays at the end of [train]. *)
        let findings = ref trained.Flow.analysis in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to repeats do
          findings := Flow.lint trained
        done;
        let seconds = (Unix.gettimeofday () -. t0) /. float_of_int repeats in
        analyze_metrics :=
          (name ^ "_lint_seconds", seconds)
          :: (name ^ "_findings", float_of_int (List.length !findings))
          :: ( name ^ "_errors",
               float_of_int (List.length (Psm_analysis.Finding.errors !findings)) )
          :: !analyze_metrics;
        [ name;
          string_of_int (Psm.state_count trained.Flow.optimized);
          string_of_int (Psm.transition_count trained.Flow.optimized);
          Psm_analysis.Report.summary !findings;
          Printf.sprintf "%.2f" (seconds *. 1000.) ])
      [ ("RAM", Psm_ips.Ram.create); ("MultSum", Psm_ips.Multsum.create);
        ("AES", Psm_ips.Aes.create); ("Camellia", Psm_ips.Camellia.create) ]
  in
  print_string
    (Report.render_table
       ~header:[ "IP"; "States"; "Trans."; "Findings"; "Lint ms/run" ]
       rows);
  print_endline
    "(No row may report errors: the mined models pass their own static\n\
    \ analysis. Warnings are legitimate -- join-induced guard overlaps the\n\
    \ HMM resolves probabilistically -- and the time is one full-context\n\
    \ analyzer pass, proposition-trace re-derivation included.)"

(* ---------- Symbolic verification ---------- *)

let verify_metrics : (string * float) list ref = ref []

let run_verify () =
  section "Symbolic verification: static proofs over the trained models";
  verify_metrics := [];
  let repeats = 5 in
  let rows =
    List.map
      (fun (name, make) ->
        let ip : Psm_ips.Ip.t = make () in
        let suite = Workloads.suite ~total_length:12_000 ~long:false name in
        let trained = Flow.train_on_ip ip suite in
        let report = ref (Flow.verify trained) in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to repeats do
          report := Flow.verify trained
        done;
        let seconds = (Unix.gettimeofday () -. t0) /. float_of_int repeats in
        let r = !report in
        let stats = r.Psm_verify.Verify.stats in
        let errors = List.length (Psm_verify.Verify.errors r) in
        verify_metrics :=
          (name ^ "_verify_seconds", seconds)
          :: ( name ^ "_disjoint_proofs",
               float_of_int stats.Psm_verify.Verify.disjoint_pairs_proved )
          :: (name ^ "_static_errors", float_of_int errors)
          :: ( name ^ "_coverage_gaps",
               float_of_int stats.Psm_verify.Verify.coverage_gaps )
          :: !verify_metrics;
        [ name;
          string_of_int stats.Psm_verify.Verify.propositions;
          string_of_int stats.Psm_verify.Verify.disjoint_pairs_proved;
          string_of_int stats.Psm_verify.Verify.coverage_gaps;
          string_of_int errors;
          Printf.sprintf "%.2f" (seconds *. 1000.) ])
      [ ("RAM", Psm_ips.Ram.create); ("MultSum", Psm_ips.Multsum.create);
        ("AES", Psm_ips.Aes.create); ("Camellia", Psm_ips.Camellia.create) ]
  in
  print_string
    (Report.render_table
       ~header:[ "IP"; "Props"; "Disjoint proofs"; "Gaps"; "Errors"; "Verify ms/run" ]
       rows);
  print_endline
    "(Exact decision procedure over the atom theory: pairwise proposition\n\
    \ disjointness, guard feasibility, input-space coverage and vacuity.\n\
    \ No mined model may carry an Error-severity refutation.)"

(* The trained models must stay statically clean and the whole symbolic
   pass must stay interactive: a verification that takes seconds per
   model would be dropped from the training flow. *)
let gate_verify ~verify =
  let get ip key =
    match List.assoc_opt (ip ^ key) verify with
    | Some v -> v
    | None ->
        Printf.eprintf "FAIL: verify gate: metric %s%s missing\n" ip key;
        exit 1
  in
  List.iter
    (fun ip ->
      let seconds = get ip "_verify_seconds" in
      let errors = get ip "_static_errors" in
      let proofs = get ip "_disjoint_proofs" in
      if seconds > 2.0 then begin
        Printf.eprintf "FAIL: %s Verify.run took %.3f s (budget 2.0 s)\n" ip
          seconds;
        exit 1
      end;
      if errors > 0. then begin
        Printf.eprintf "FAIL: %s carries %.0f Error-severity static findings\n"
          ip errors;
        exit 1
      end;
      if proofs < 1. then begin
        Printf.eprintf "FAIL: %s proved no disjointness pairs\n" ip;
        exit 1
      end;
      Printf.printf
        "verify gate: %s ok (%.1f ms, %.0f disjointness proofs, 0 errors)\n" ip
        (seconds *. 1000.) proofs)
    [ "RAM"; "MultSum"; "AES"; "Camellia" ]

(* ---------- Kernel and analyzer evaluation ---------- *)

(* Filled by [run_evaluate], folded into the --json report. *)
let evaluate_metrics : (string * float) list ref = ref []

(* PR 4's measured Camellia flow.analyze span (BENCH_4.json): the gate
   below requires at least a 2x speedup over it. *)
let bench4_camellia_analyze_s = 7.892218
let required_analyze_speedup = 2.0

let with_jobs jobs f =
  let saved = Psm_par.default_jobs () in
  Psm_par.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Psm_par.set_jobs saved) f

let run_evaluate () =
  section "Evaluate: the parallel analyzer vs its one-job baseline";
  evaluate_metrics := [];
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let camellia_analyze = ref infinity in
  let rows =
    List.map
      (fun (name, make) ->
        let ip : Psm_ips.Ip.t = make () in
        let suite =
          Workloads.suite ~total_length:(Workloads.paper_short_length name) ~long:false
            name
        in
        let trained = Flow.train_on_ip ip suite in
        let hmm = trained.Flow.hmm in
        let table = trained.Flow.table in
        (* Full-context analyzer: the Psm_par fan-out vs a one-job pool.
           The reports must be byte-identical. *)
        let gammas =
          Array.map (Psm_mining.Prop_trace.of_functional table) trained.Flow.traces
        in
        let analyze () =
          Psm_analysis.Analyzer.analyze ~hmm ~gammas ~powers:trained.Flow.powers
            trained.Flow.optimized
        in
        let seq_findings, lint_seq_s = with_jobs 1 (fun () -> time analyze) in
        let par_findings, lint_par_s = time analyze in
        if Psm_analysis.Report.json seq_findings <> Psm_analysis.Report.json par_findings
        then begin
          Printf.eprintf "FAIL: %s parallel analyzer report differs from jobs=1\n" name;
          exit 1
        end;
        (* The train-time flow.analyze span is what BENCH_4 recorded, so
           it is the apples-to-apples number for the speedup gate. *)
        let analyze_s = trained.Flow.timings.Flow.analyze_s in
        if name = "Camellia" then camellia_analyze := analyze_s;
        evaluate_metrics :=
          !evaluate_metrics
          @ [ (name ^ "_lint_jobs1_seconds", lint_seq_s);
              (name ^ "_lint_parallel_seconds", lint_par_s);
              (name ^ "_train_analyze_seconds", analyze_s) ];
        let ratio num den = if den > 0. then num /. den else 0. in
        [ name;
          Printf.sprintf "%.2fx" (ratio lint_seq_s lint_par_s);
          Printf.sprintf "%.3f" analyze_s ])
      [ ("RAM", Psm_ips.Ram.create); ("MultSum", Psm_ips.Multsum.create);
        ("AES", Psm_ips.Aes.create); ("Camellia", Psm_ips.Camellia.create) ]
  in
  print_string
    (Report.render_table ~header:[ "IP"; "lint 1j/par"; "train lint s" ] rows);
  print_endline
    "(The parallel and one-job analyzer reports are checked byte-identical\n\
    \ above, so the ratio compares schedules, not results.)";
  (* The acceptance gate: Camellia's train-time analyze span must beat the
     PR 4 measurement by the required factor. *)
  let budget = bench4_camellia_analyze_s /. required_analyze_speedup in
  let speedup =
    if !camellia_analyze > 0. then bench4_camellia_analyze_s /. !camellia_analyze else 0.
  in
  evaluate_metrics :=
    !evaluate_metrics
    @ [ ("camellia_analyze_budget_seconds", budget);
        ("camellia_analyze_speedup_vs_bench4", speedup) ];
  Printf.printf "Camellia flow.analyze: %.3f s (BENCH_4: %.3f s, %.0fx; budget %.3f s)\n"
    !camellia_analyze bench4_camellia_analyze_s speedup budget;
  if !camellia_analyze > budget then begin
    Printf.eprintf
      "FAIL: Camellia flow.analyze %.3f s misses the %.1fx speedup gate over \
       BENCH_4's %.3f s\n"
      !camellia_analyze required_analyze_speedup bench4_camellia_analyze_s;
    exit 1
  end

(* ---------- Observability profile ---------- *)

(* Filled by [run_profile], folded into the --json report. *)
let profile_metrics : (string * float) list ref = ref []

let phase_total summary name =
  match List.assoc_opt name summary.Psm_obs.span_stats with
  | Some s -> s.Psm_obs.total_s
  | None -> 0.

let run_profile () =
  section "Profile: observability per-phase breakdown (paper IPs)";
  (* Cost of one instrumentation hit on the disabled sink: one atomic
     load and a branch. Measured directly so the overhead assertion below
     is deterministic instead of a noisy A/B wall-clock diff. *)
  Psm_obs.disable ();
  let guard_hits = 5_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to guard_hits do
    Psm_obs.span "bench.guard" (fun () -> ())
  done;
  let guard_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int guard_hits in
  Printf.printf "disabled sink: %.1f ns per instrumentation hit\n" guard_ns;
  profile_metrics := [ ("disabled_guard_ns_per_hit", guard_ns) ];
  let overheads = ref [] in
  let rows =
    List.map
      (fun (name, make) ->
        let ip : Psm_ips.Ip.t = make () in
        let suite =
          Workloads.suite ~total_length:(Workloads.paper_short_length name)
            ~long:false name
        in
        (* Baseline: the instrumented build with the sink disabled (the
           default state every other bench stage runs in). *)
        let t0 = Unix.gettimeofday () in
        ignore (Flow.train_on_ip ip suite);
        let disabled_s = Unix.gettimeofday () -. t0 in
        (* The same training with the recording sink on. *)
        let summary, enabled_s =
          Psm_obs.enable ();
          Psm_obs.reset ();
          Fun.protect ~finally:Psm_obs.disable (fun () ->
              let t0 = Unix.gettimeofday () in
              ignore (Flow.train_on_ip ip suite);
              (Psm_obs.snapshot (), Unix.gettimeofday () -. t0))
        in
        let events = List.length summary.Psm_obs.events in
        (* Instrumentation hits the disabled sink would have paid for:
           one per span plus one per counter bump ([hmm.rows_normalized]
           increments by one per call; the remaining counters are bumped
           once per phase, approximated by one hit per counter name). *)
        let rows_normalized =
          Option.value ~default:0.
            (List.assoc_opt "hmm.rows_normalized" summary.Psm_obs.counters)
        in
        let hits =
          float_of_int events +. rows_normalized
          +. float_of_int (List.length summary.Psm_obs.counters)
        in
        let overhead_pct = 100. *. (hits *. guard_ns *. 1e-9) /. disabled_s in
        overheads := (name, overhead_pct) :: !overheads;
        let mine_s = phase_total summary "flow.mine" in
        let generate_s = phase_total summary "flow.generate" in
        let combine_s = phase_total summary "flow.combine" in
        let analyze_s = phase_total summary "flow.analyze" in
        profile_metrics :=
          !profile_metrics
          @ [ (name ^ "_disabled_train_seconds", disabled_s);
              (name ^ "_enabled_train_seconds", enabled_s);
              (name ^ "_mine_seconds", mine_s);
              (name ^ "_generate_seconds", generate_s);
              (name ^ "_combine_seconds", combine_s);
              (name ^ "_analyze_seconds", analyze_s);
              (name ^ "_hmm_build_seconds", phase_total summary "hmm.build");
              (name ^ "_span_events", float_of_int events);
              ( name ^ "_span_names",
                float_of_int (List.length summary.Psm_obs.span_stats) );
              (name ^ "_instrumentation_hits", hits);
              (name ^ "_disabled_overhead_pct", overhead_pct) ]
        ;
        [ name;
          Printf.sprintf "%.3f" mine_s;
          Printf.sprintf "%.3f" generate_s;
          Printf.sprintf "%.3f" combine_s;
          Printf.sprintf "%.3f" analyze_s;
          string_of_int events;
          Printf.sprintf "%.4f%%" overhead_pct ])
      [ ("RAM", Psm_ips.Ram.create); ("MultSum", Psm_ips.Multsum.create);
        ("AES", Psm_ips.Aes.create); ("Camellia", Psm_ips.Camellia.create) ]
  in
  print_string
    (Report.render_table
       ~header:[ "IP"; "mine s"; "gen s"; "comb s"; "lint s"; "Spans"; "Disabled ovh" ]
       rows);
  print_endline
    "(Disabled ovh = instrumentation hits x measured disabled-guard cost,\n\
    \ relative to the uninstrumented-equivalent training time; the sink is\n\
    \ off by default, so this is what every non-profiled run pays.)";
  (* The acceptance gate: the disabled sink must stay under 1%. *)
  List.iter
    (fun (name, pct) ->
      if pct > 1.0 then begin
        Printf.eprintf
          "FAIL: disabled-sink overhead on %s is %.4f%% (budget: 1%%)\n" name pct;
        exit 1
      end)
    !overheads

(* ---------- Streaming trainer ---------- *)

(* Filled by [run_stream], folded into the --json report. *)
let stream_metrics : (string * float) list ref = ref []

let stream_iface =
  Psm_trace.Interface.create
    [ Psm_trace.Signal.input "mode" 2;
      Psm_trace.Signal.input "req" 1;
      Psm_trace.Signal.output "busy" 1 ]

(* A deterministic cyclic workload: six behaviors revisited with a fixed
   64-cycle dwell, so the model stays constant while the trace length
   grows — the shape under which O(model) live memory is observable. *)
let stream_workload len =
  let dwell = 64 in
  let open Psm_bits in
  let samples =
    Array.init len (fun _ -> [| Bits.zero 2; Bits.zero 1; Bits.zero 1 |])
  in
  let powers = Array.make len 0. in
  let behaviors = [| (0, 0); (1, 1); (3, 0); (2, 1); (0, 1); (3, 1) |] in
  for i = 0 to len - 1 do
    let mode, req = behaviors.((i / dwell) mod Array.length behaviors) in
    let busy = if mode >= 2 then 1 else req in
    samples.(i) <-
      [| Bits.of_int ~width:2 mode; Bits.of_int ~width:1 req;
         Bits.of_int ~width:1 busy |];
    powers.(i) <-
      float_of_int ((mode * 7) + (busy * 3) + 2) +. (0.05 *. float_of_int (i mod 5))
  done;
  ( Psm_trace.Functional_trace.of_samples stream_iface samples,
    Psm_trace.Power_trace.of_array powers )

let write_stream_vcd path len =
  let trace, power = stream_workload len in
  Psm_trace.Vcd.write_file ~power path trace

(* Peak live major heap during [f], sampled at the end of every major
   collection (post-sweep, so floating garbage is excluded). *)
let with_peak_live f =
  Gc.full_major ();
  let peak = ref (Gc.quick_stat ()).Gc.live_words in
  let alarm =
    Gc.create_alarm (fun () ->
        let live = (Gc.quick_stat ()).Gc.live_words in
        if live > !peak then peak := live)
  in
  let result =
    Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f
  in
  Gc.full_major ();
  let live = (Gc.quick_stat ()).Gc.live_words in
  if live > !peak then peak := live;
  (result, !peak)

let run_stream () =
  section "Streaming trainer: throughput and live-heap bound";
  let measure len =
    let path = Filename.temp_file "psm-stream-bench" ".vcd" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        write_stream_vcd path len;
        let (result, seconds), peak =
          with_peak_live (fun () ->
              let t0 = Unix.gettimeofday () in
              let r =
                Psm_flow.Stream_train.train_stream ~period:1
                  ~provenance:`Counts [ path ]
              in
              (r, Unix.gettimeofday () -. t0))
        in
        (* Sanity: the streamed model must equal the batch model on the
           same file (the full structural check lives in the test suite;
           state/transition counts catch a divergent bench immediately). *)
        let batch, _ = Flow.train_on_vcd_files ~period:1 [ path ] in
        let bp = batch.Flow.optimized
        and sp = result.Psm_flow.Stream_train.optimized in
        if
          Psm.state_count bp <> Psm.state_count sp
          || Psm.transition_count bp <> Psm.transition_count sp
        then begin
          Printf.eprintf
            "FAIL: streamed model (%d states, %d transitions) diverges from \
             batch (%d states, %d transitions) at %d cycles\n"
            (Psm.state_count sp) (Psm.transition_count sp) (Psm.state_count bp)
            (Psm.transition_count bp) len;
          exit 1
        end;
        (result, seconds, peak))
  in
  let rows =
    List.map
      (fun len ->
        let result, seconds, peak = measure len in
        let cycles = result.Psm_flow.Stream_train.cycles in
        let rate = if seconds > 0. then float_of_int cycles /. seconds else 0. in
        let compression =
          let trace, _ = stream_workload len in
          Psm_trace.Runs.compression (Psm_trace.Functional_trace.runs trace)
        in
        let tag = Printf.sprintf "stream_%dk" (len / 1000) in
        stream_metrics :=
          !stream_metrics
          @ [ (tag ^ "_train_seconds", seconds);
              (tag ^ "_cycles_per_s", rate);
              (tag ^ "_peak_live_words", float_of_int peak);
              ( tag ^ "_compactions",
                float_of_int result.Psm_flow.Stream_train.compactions );
              (tag ^ "_run_compression", compression) ];
        [ string_of_int len;
          string_of_int cycles;
          Printf.sprintf "%.3f" seconds;
          Printf.sprintf "%.0f" rate;
          string_of_int result.Psm_flow.Stream_train.compactions;
          string_of_int peak;
          string_of_int
            (Psm.state_count result.Psm_flow.Stream_train.optimized);
          Printf.sprintf "%.4f" compression ])
      [ 10_000; 100_000 ]
  in
  print_string
    (Report.render_table
       ~header:
         [ "VCD cycles"; "trained"; "train s"; "cycles/s"; "compactions";
           "peak live words"; "states"; "run compression" ]
       rows);
  print_endline
    "(peak live words = live major heap sampled at every major-GC end while\n\
    \ streaming with [`Counts] provenance, which keeps sufficient statistics\n\
    \ instead of per-occurrence intervals/components; the 10k and 100k\n\
    \ workloads build the same model, so the ratio between the two peaks is\n\
    \ the live-memory-vs-trace-length bound.)"

(* The acceptance gate: streaming a 10x longer trace of the same cyclic
   workload must not grow the peak live major heap by more than 10%. *)
let gate_stream_heap ~stream =
  match
    ( List.assoc_opt "stream_10k_peak_live_words" stream,
      List.assoc_opt "stream_100k_peak_live_words" stream )
  with
  | Some small, Some big when small > 0. ->
      let ratio = big /. small in
      Printf.printf "[gate] stream live-heap 100k/10k: %.3fx (ceiling 1.10x)\n"
        ratio;
      if ratio > 1.10 then begin
        Printf.eprintf
          "FAIL: streaming live heap grew %.3fx from 10k to 100k cycles \
           (budget 1.10x)\n"
          ratio;
        exit 1
      end
  | _ ->
      Printf.eprintf "FAIL: --gate requires the stream stage\n";
      exit 1

(* ---------- Serve: concurrent sessions, batched sparse sweeps ---------- *)

let serve_metrics : (string * float) list ref = ref []

module Serve_engine = Psm_serve.Engine

(* Thousands of in-process estimation sessions against the serve engine:
   the batched scheduler (sharded sparse sweeps per model x mode group
   per tick) against a per-session loop of {!Filtering.Stream.step} on
   identical inputs. Two phases. The timed phase runs 1024 filter
   sessions over a stress model trained from a synthetic power-mode VCD —
   wide enough (100+ HMM states) that the forward kernel, not session
   bookkeeping, is what the clock sees; observations are pre-queued so
   the measured region is exactly ticks. The identity phase replays real
   IP models in both modes and demands bit-identical output three ways —
   batched, loop (filter sessions), and offline single-trace
   inference. *)
let run_serve () =
  section "Serve: concurrent sessions, batched sparse sweeps";
  let sid s = Printf.sprintf "s%04d" s in
  let mk_plan ~rng ~nprops ~cycles =
    Array.init cycles (fun _ ->
        if nprops = 0 || Random.State.int rng 8 = 0 then None
        else Some (Random.State.int rng nprops))
  in
  (* Offline reference for one session's trace, used by both phases. *)
  let offline_expected (model : Psm_flow.Persist.model) mode obs =
    let hmm = model.Psm_flow.Persist.hmm in
    match mode with
    | `Filter ->
        let filt = Psm_hmm.Filtering.create hmm in
        let rows = Psm_hmm.Filtering.map_states filt obs in
        let posts = Psm_hmm.Filtering.posteriors filt obs in
        let outputs =
          Array.init (Array.length posts.(0)) (fun row ->
              (Psm.state model.Psm_flow.Persist.psm
                 (Psm_hmm.Hmm.state_of_row hmm row))
                .Psm.output)
        in
        Array.init (Array.length obs) (fun t ->
            let acc = ref 0. in
            Array.iteri
              (fun row p ->
                if p > 0. then
                  acc := !acc +. (p *. Psm.eval_output outputs.(row) ~hamming:0.))
              posts.(t);
            (!acc, Psm_hmm.Hmm.state_of_row hmm rows.(t)))
    | `Sim ->
        let stepper = Psm_hmm.Multi_sim.Stepper.create hmm in
        Array.map
          (fun o ->
            Psm_hmm.Multi_sim.Stepper.step_classified stepper ~hamming:0. o)
          obs
  in
  (* The per-session reference loop: every session steps its own belief
     one observation at a time, cycle-major like the engine's ticks.
     Returns per-session results and the wall-clock seconds. *)
  let step_loop (model : Psm_flow.Persist.model) plans =
    let hmm = model.Psm_flow.Persist.hmm in
    let filt = Psm_hmm.Filtering.create hmm in
    let n = Array.length plans in
    let cycles = Array.length plans.(0) in
    let states = Array.init n (fun _ -> Psm_hmm.Filtering.Stream.make filt) in
    let results = Array.init n (fun _ -> Array.make cycles (0., 0)) in
    let t0 = Unix.gettimeofday () in
    for t = 0 to cycles - 1 do
      for s = 0 to n - 1 do
        let st = states.(s) in
        Psm_hmm.Filtering.Stream.step filt st plans.(s).(t);
        results.(s).(t) <-
          ( Psm_hmm.Filtering.Stream.power filt st ~hamming:0.,
            Psm_hmm.Hmm.state_of_row hmm
              (Psm_hmm.Filtering.Stream.map_state filt st) )
      done
    done;
    (results, Unix.gettimeofday () -. t0)
  in
  let check_pair ~what s t (pa, sa) (pb, sb) =
    if sa <> sb || Float.compare pa pb <> 0 then begin
      Printf.eprintf
        "FAIL: serve %s divergence at session %d cycle %d (%.17g/s%d vs \
         %.17g/s%d)\n"
        what s t pa sa pb sb;
      exit 1
    end
  in
  (* ----- timed phase: the stress model ----- *)
  (* A synthetic IP with 160 power behaviours selected by an 8-bit mode
     register, 48-cycle dwell and exponentially spread power levels —
     mined into a PSM/HMM of 100+ states, the scale where batching the
     forward sweeps is worth a daemon. *)
  let stress_model () =
    let open Psm_bits in
    let iface =
      Psm_trace.Interface.create
        [ Psm_trace.Signal.input "mode" 8;
          Psm_trace.Signal.input "req" 1;
          Psm_trace.Signal.output "busy" 1 ]
    in
    let nbehaviors = 160 and dwell = 48 in
    let len = nbehaviors * dwell * 4 in
    let samples = Array.make len [||] in
    let powers = Array.make len 0. in
    for i = 0 to len - 1 do
      let b = i / dwell mod nbehaviors in
      let req = b land 1 in
      let busy = if b mod 3 = 0 then 1 else req in
      samples.(i) <-
        [| Bits.of_int ~width:8 b;
           Bits.of_int ~width:1 req;
           Bits.of_int ~width:1 busy |];
      powers.(i) <- (1.18 ** float_of_int b) *. (2. +. (0.3 *. float_of_int busy))
    done;
    let trace = Psm_trace.Functional_trace.of_samples iface samples in
    let path = Filename.temp_file "psm-serve-bench" ".vcd" in
    Psm_trace.Vcd.write_file
      ~power:(Psm_trace.Power_trace.of_array powers)
      path trace;
    let trained, _ = Flow.train_on_vcd_files ~period:1 [ path ] in
    Sys.remove path;
    { Psm_flow.Persist.table = trained.Flow.table;
      psm = trained.Flow.optimized;
      hmm = trained.Flow.hmm }
  in
  let stress = stress_model () in
  let n_stress = 1024 and stress_cycles = 200 in
  let rng = Random.State.make [| 0x5e7e; 9 |] in
  let stress_nprops = Table.prop_count stress.Psm_flow.Persist.table in
  let stress_plan =
    Array.init n_stress (fun _ ->
        mk_plan ~rng ~nprops:stress_nprops ~cycles:stress_cycles)
  in
  let drive_stress ~ticks =
    let engine = Serve_engine.create ~idle_timeout:0. [ ("STRESS", stress) ] in
    Array.iteri
      (fun s _ ->
        match
          Serve_engine.open_session engine ~id:(sid s) ~model:"STRESS"
            ~mode:`Filter
        with
        | Ok () -> ()
        | Error e ->
            Printf.eprintf "FAIL: serve open %s: %s\n" (sid s) e;
            exit 1)
      stress_plan;
    (* Pre-queue every observation so the timed region is ticks alone. *)
    Array.iteri
      (fun s obs ->
        match
          Serve_engine.submit engine ~id:(sid s)
            (Array.map (fun o -> (o, 0.)) obs)
        with
        | Ok n when n = stress_cycles -> ()
        | Ok n ->
            Printf.eprintf "FAIL: serve submit enqueued %d cycles\n" n;
            exit 1
        | Error e ->
            Printf.eprintf "FAIL: serve submit %s: %s\n" (sid s) e;
            exit 1)
      stress_plan;
    let t0 = Unix.gettimeofday () in
    for t = 0 to stress_cycles - 1 do
      let tick0 = Unix.gettimeofday () in
      let advanced = Serve_engine.tick engine in
      (match ticks with
      | Some a -> a.(t) <- Unix.gettimeofday () -. tick0
      | None -> ());
      if advanced <> n_stress then begin
        Printf.eprintf "FAIL: serve tick advanced %d of %d sessions\n" advanced
          n_stress;
        exit 1
      end
    done;
    let seconds = Unix.gettimeofday () -. t0 in
    let results =
      Array.init n_stress (fun s ->
          match
            Serve_engine.take_results engine ~id:(sid s) ~count:stress_cycles
          with
          | Ok r when Array.length r = stress_cycles -> r
          | Ok r ->
              Printf.eprintf "FAIL: serve session %s served %d of %d cycles\n"
                (sid s) (Array.length r) stress_cycles;
              exit 1
          | Error e ->
              Printf.eprintf "FAIL: serve results %s: %s\n" (sid s) e;
              exit 1)
    in
    (results, seconds)
  in
  let tick_lat = Array.make stress_cycles 0. in
  (* Best of two runs per scheduler: one-shot wall times at this scale
     carry enough scheduler noise to wobble the gate either way. *)
  let _, batch_s0 = drive_stress ~ticks:None in
  let batched, batch_s1 = drive_stress ~ticks:(Some tick_lat) in
  let batch_s = Float.min batch_s0 batch_s1 in
  let _, loop_s0 = step_loop stress stress_plan in
  let looped, loop_s1 = step_loop stress stress_plan in
  let loop_s = Float.min loop_s0 loop_s1 in
  (* Bit-identity 1: the batched sweep against the per-session loop,
     every session, every cycle. *)
  for s = 0 to n_stress - 1 do
    for t = 0 to stress_cycles - 1 do
      check_pair ~what:"batched/loop" s t batched.(s).(t) looped.(s).(t)
    done
  done;
  (* Bit-identity 2: served output against offline single-trace
     inference on a sample of stress sessions. *)
  List.iter
    (fun s ->
      let expected = offline_expected stress `Filter stress_plan.(s) in
      for t = 0 to stress_cycles - 1 do
        check_pair ~what:"served/offline" s t batched.(s).(t) expected.(t)
      done)
    [ 0; 1; 511; 1023 ];
  (* ----- identity phase: real IP models, both modes ----- *)
  let model_of name ip =
    let suite = Workloads.suite ~total_length:8000 ~long:false name in
    let trained = Flow.train_on_ip ip suite in
    ( name,
      { Psm_flow.Persist.table = trained.Flow.table;
        psm = trained.Flow.optimized;
        hmm = trained.Flow.hmm } )
  in
  let models =
    [ model_of "RAM" (Psm_ips.Ram.create ());
      model_of "FIFO" (Psm_ips.Fifo.create ()) ]
  in
  let n_id_filter = 64 and n_id_sim = 64 in
  let n_id = n_id_filter + n_id_sim in
  let id_cycles = 200 in
  let id_plan =
    Array.init n_id (fun s ->
        let name, model = List.nth models (s mod 2) in
        let nprops = Table.prop_count model.Psm_flow.Persist.table in
        let mode = if s < n_id_filter then `Filter else `Sim in
        (name, mode, mk_plan ~rng ~nprops ~cycles:id_cycles))
  in
  let drive_id () =
    let engine = Serve_engine.create ~idle_timeout:0. models in
    Array.iteri
      (fun s (model, mode, _) ->
        match Serve_engine.open_session engine ~id:(sid s) ~model ~mode with
        | Ok () -> ()
        | Error e ->
            Printf.eprintf "FAIL: serve open %s: %s\n" (sid s) e;
            exit 1)
      id_plan;
    (* Interleaved feeding: one observation per session per drain, the
       wave pattern the daemon's socket loop produces. *)
    for t = 0 to id_cycles - 1 do
      Array.iteri
        (fun s (_, _, obs) ->
          match Serve_engine.submit engine ~id:(sid s) [| (obs.(t), 0.) |] with
          | Ok 1 -> ()
          | Ok _ | Error _ ->
              Printf.eprintf "FAIL: serve submit %s\n" (sid s);
              exit 1)
        id_plan;
      ignore (Serve_engine.drain engine)
    done;
    Array.init n_id (fun s ->
        match Serve_engine.take_results engine ~id:(sid s) ~count:id_cycles with
        | Ok r when Array.length r = id_cycles -> r
        | _ ->
            Printf.eprintf "FAIL: serve results %s\n" (sid s);
            exit 1)
  in
  let id_batched = drive_id () in
  for s = 0 to n_id - 1 do
    let name, mode, obs = id_plan.(s) in
    let model = List.assoc name models in
    let expected = offline_expected model mode obs in
    let looped =
      match mode with
      | `Filter -> Some (fst (step_loop model [| obs |])).(0)
      | `Sim -> None
    in
    for t = 0 to id_cycles - 1 do
      Option.iter
        (fun l -> check_pair ~what:"batched/loop" s t id_batched.(s).(t) l.(t))
        looped;
      check_pair ~what:"served/offline" s t id_batched.(s).(t) expected.(t)
    done
  done;
  let lat = Array.copy tick_lat in
  Array.sort Float.compare lat;
  let pct q =
    lat.(min (stress_cycles - 1) (int_of_float (q *. float_of_int stress_cycles)))
  in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  let rate s = float_of_int (n_stress * stress_cycles) /. s in
  let speedup = if batch_s > 0. then loop_s /. batch_s else 0. in
  serve_metrics :=
    [ ("sessions", float_of_int n_stress);
      ("cycles_per_session", float_of_int stress_cycles);
      ("stress_hmm_states",
       float_of_int (Psm_hmm.Hmm.state_count stress.Psm_flow.Persist.hmm));
      ("batched_seconds", batch_s);
      ("batched_session_cycles_per_s", rate batch_s);
      ("loop_seconds", loop_s);
      ("loop_session_cycles_per_s", rate loop_s);
      ("batched_speedup_vs_loop", speedup);
      ("tick_p50_ms", p50 *. 1e3);
      ("tick_p99_ms", p99 *. 1e3);
      ("identity_sessions", float_of_int n_id) ];
  print_string
    (Report.render_table
       ~header:[ "scheduler"; "seconds"; "session-cycles/s"; "speedup" ]
       [ [ "batched sweeps"; Printf.sprintf "%.3f" batch_s;
           Printf.sprintf "%.0f" (rate batch_s);
           Printf.sprintf "%.2fx" speedup ];
         [ "per-session loop"; Printf.sprintf "%.3f" loop_s;
           Printf.sprintf "%.0f" (rate loop_s); "1.00x" ] ]);
  Printf.printf
    "%d filter sessions on the %d-state stress model, %d cycles each;\n\
     per-tick latency p50 %.3f ms, p99 %.3f ms.\n\
     Identity: %d sessions (%d filter + %d sim over %d IP models) —\n\
     output bit-identical (batched = per-session step loop = offline \
     single-trace inference).\n"
    n_stress
    (Psm_hmm.Hmm.state_count stress.Psm_flow.Persist.hmm)
    stress_cycles (p50 *. 1e3) (p99 *. 1e3) n_id n_id_filter n_id_sim
    (List.length models)

(* The acceptance gate: with 1000+ concurrent sessions the batched
   scheduler must at least double the per-session loop's throughput (the
   bit-identity self-checks above already exited 1 on any divergence). *)
let gate_serve ~serve =
  match List.assoc_opt "batched_speedup_vs_loop" serve with
  | Some speedup ->
      Printf.printf "[gate] serve batched speedup vs loop: %.2fx (floor 2.00x)\n"
        speedup;
      if speedup < 2.0 then begin
        Printf.eprintf
          "FAIL: serve batched sweeps only %.2fx the per-session loop \
           (gate 2.00x)\n"
          speedup;
        exit 1
      end
  | None ->
      Printf.eprintf "FAIL: --gate requires the serve stage\n";
      exit 1

(* ---------- Micro-benchmarks ---------- *)

let micro_tests () =
  let open Bechamel in
  let ram = Psm_ips.Ram.create () in
  let ram_stim = Workloads.ram_short ~length:2000 () in
  let aes = Psm_ips.Aes.create () in
  let aes_stim = Workloads.aes_short ~length:2000 () in
  let trace, power = Psm_ips.Capture.run ram ram_stim in
  let suite = Workloads.suite ~total_length:8000 ~long:false "RAM" in
  let trained = Flow.train_on_ip ram suite in
  let vocabulary = Table.vocabulary trained.Flow.table in
  let sample = Psm_trace.Functional_trace.sample trace ~time:100 in
  let gamma = Psm_mining.Prop_trace.of_functional trained.Flow.table trace in
  let plan = Psm_hmm.Multi_sim.Plan.create trained.Flow.hmm in
  let stepper = ref (Psm_hmm.Multi_sim.Stepper.of_plan plan) in
  [ Test.make ~name:"ip-step/RAM"
      (Staged.stage (fun () ->
           ram.Psm_ips.Ip.reset ();
           Array.iter (fun pis -> ignore (ram.Psm_ips.Ip.step pis))
             (Array.sub ram_stim 0 256)));
    Test.make ~name:"ip-step/AES"
      (Staged.stage (fun () ->
           aes.Psm_ips.Ip.reset ();
           Array.iter (fun pis -> ignore (aes.Psm_ips.Ip.step pis))
             (Array.sub aes_stim 0 256)));
    Test.make ~name:"mining/vocabulary-2k"
      (Staged.stage (fun () ->
           ignore (Psm_mining.Miner.mine_vocabulary [ trace ])));
    Test.make ~name:"mining/classify-sample"
      (Staged.stage (fun () -> ignore (Table.classify trained.Flow.table sample)));
    Test.make ~name:"mining/eval-vocabulary"
      (Staged.stage (fun () -> ignore (Psm_mining.Vocabulary.eval_sample vocabulary sample)));
    Test.make ~name:"generator/xu-segmentation-2k"
      (Staged.stage (fun () ->
           ignore
             (Psm_core.Generator.generate
                (Psm.empty trained.Flow.table)
                ~trace:0 gamma power)));
    Test.make ~name:"hmm/stepper-step"
      (Staged.stage (fun () -> ignore (Psm_hmm.Multi_sim.Stepper.step !stepper sample)));
    Test.make ~name:"hmm/stepper-256-cycles"
      (Staged.stage (fun () ->
           stepper := Psm_hmm.Multi_sim.Stepper.of_plan plan;
           for t = 0 to 255 do
             ignore
               (Psm_hmm.Multi_sim.Stepper.step !stepper
                  (Psm_trace.Functional_trace.sample trace ~time:t))
           done));
    Test.make ~name:"gate-sim/levelized-RAM-cycle"
      (Staged.stage
         (let sim = Psm_rtl.Sim.create (Psm_ips.Ram_gates.netlist ()) in
          let ins =
            [ ("ce", Psm_bits.Bits.of_bool false); ("we", Psm_bits.Bits.of_bool false);
              ("addr", Psm_bits.Bits.zero 10); ("wdata", Psm_bits.Bits.zero 32) ]
          in
          fun () -> ignore (Psm_rtl.Sim.step sim ins)));
    Test.make ~name:"gate-sim/event-driven-RAM-cycle"
      (Staged.stage
         (let sim = Psm_rtl.Event_sim.create (Psm_ips.Ram_gates.netlist ()) in
          let ins =
            [ ("ce", Psm_bits.Bits.of_bool false); ("we", Psm_bits.Bits.of_bool false);
              ("addr", Psm_bits.Bits.zero 10); ("wdata", Psm_bits.Bits.zero 32) ]
          in
          fun () -> ignore (Psm_rtl.Event_sim.step sim ins)));
    Test.make ~name:"stats/welch-t-test"
      (Staged.stage (fun () ->
           ignore
             (Psm_stats.Ttest.welch ~mean1:10. ~stddev1:2. ~n1:500 ~mean2:10.1
                ~stddev2:1.9 ~n2:400))) ]

let run_micro () =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let tests = Test.make_grouped ~name:"psm" ~fmt:"%s %s" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some [ ns ] -> Printf.sprintf "%12.1f ns/run" ns
        | Some _ | None -> "n/a"
      in
      Printf.printf "  %-32s %s\n" name estimate)
    results

(* ---------- Driver ---------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Run [f] with stdout redirected to /dev/null — the jobs=1 baseline of
   [--json] re-runs whole stages and their table printing would otherwise
   appear twice. *)
let silenced f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let stages_of ~long_length ~eval_length ~ablation_eval what =
  let table1 = ("table1", run_table1) in
  let table2 = ("table2", run_table2 ~long_length) in
  let table3 = ("table3", run_table3 ~eval_length) in
  let figs = ("figs", run_figs) in
  let ablations = ("ablations", run_ablations ~eval_length:ablation_eval) in
  let ingest = ("ingest", run_ingest) in
  let analyze = ("analyze", run_analyze) in
  let verify = ("verify", run_verify) in
  let evaluate = ("evaluate", run_evaluate) in
  let profile = ("profile", run_profile) in
  let stream = ("stream", run_stream) in
  let serve = ("serve", run_serve) in
  let micro = ("micro", run_micro) in
  match what with
  | "table1" -> Some [ table1 ]
  | "table2" -> Some [ table2 ]
  | "table3" -> Some [ table3 ]
  | "figs" -> Some [ figs ]
  | "ablations" -> Some [ ablations ]
  | "ingest" -> Some [ ingest ]
  | "analyze" -> Some [ analyze ]
  | "verify" -> Some [ verify ]
  | "evaluate" -> Some [ evaluate ]
  | "profile" -> Some [ profile ]
  | "stream" -> Some [ stream ]
  | "serve" -> Some [ serve ]
  | "micro" -> Some [ micro ]
  | "all" ->
      Some
        [ table1; table2; table3; figs; ablations; ingest; analyze; verify;
          evaluate; profile; stream; serve; micro ]
  | _ -> None

(* Two independent wall-clock measurements never agree to the printed
   microsecond: byte-identical *_seconds values of non-trivial size mean
   one measurement was recorded under two names — a reused binding or a
   key collision (the BENCH_5 bug class: MultSum and RAM reporting the
   same multisim number). Fail loudly rather than commit fiction. *)
let check_distinct_measurements metrics =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (label, entries) ->
      List.iter
        (fun (key, v) ->
          if Filename.check_suffix key "_seconds" && v >= 0.01 then begin
            let repr = Printf.sprintf "%.6f" v in
            match Hashtbl.find_opt seen repr with
            | Some (label0, key0) ->
                Printf.eprintf
                  "FAIL: metrics %s.%s and %s.%s are byte-identical (%s s); \
                   independent measurements cannot coincide\n"
                  label0 key0 label key repr;
                exit 1
            | None -> Hashtbl.add seen repr (label, key)
          end)
        entries)
    metrics

let write_json file ~command ~paper ~jobs ~timings ~baseline ~metrics =
  let oc = open_out file in
  let out fmt = Printf.fprintf oc fmt in
  let baseline_of name =
    Option.bind baseline (fun b -> List.assoc_opt name b)
  in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. timings in
  let baseline_total =
    Option.map (List.fold_left (fun acc (_, s) -> acc +. s) 0.) baseline
  in
  out "{\n";
  out "  \"schema\": 1,\n";
  out "  \"command\": %S,\n" command;
  out "  \"paper_scale\": %b,\n" paper;
  out "  \"jobs\": %d,\n" jobs;
  out "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"stages\": [\n";
  List.iteri
    (fun i (name, seconds) ->
      out "    { \"name\": %S, \"seconds\": %.3f" name seconds;
      (match baseline_of name with
      | Some base ->
          out ", \"jobs1_seconds\": %.3f, \"speedup_vs_jobs1\": %.3f" base
            (if seconds > 0. then base /. seconds else 0.)
      | None -> ());
      out " }%s\n" (if i = List.length timings - 1 then "" else ","))
    timings;
  out "  ],\n";
  let metrics_block label metrics =
    match metrics with
    | [] -> ()
    | metrics ->
        out "  %S: {\n" label;
        List.iteri
          (fun i (k, v) ->
            out "    %S: %.6f%s\n" k v (if i = List.length metrics - 1 then "" else ","))
          metrics;
        out "  },\n"
  in
  List.iter (fun (label, entries) -> metrics_block label entries) metrics;
  out "  \"total_seconds\": %.3f" total;
  (match baseline_total with
  | Some base ->
      out ",\n  \"jobs1_total_seconds\": %.3f,\n  \"speedup_vs_jobs1\": %.3f\n" base
        (if total > 0. then base /. total else 0.)
  | None -> out "\n");
  out "}\n";
  close_out oc

(* The hardware-conditional CI gates: a 1-core host cannot speed anything
   up by parallelism, but after the domain clamp PSM_JOBS=4 must at least
   be a no-op there (BENCH_1 recorded 0.26×; that must never return). *)
let gate_table2_speedup ~timings ~baseline =
  match
    (List.assoc_opt "table2" timings, Option.bind baseline (List.assoc_opt "table2"))
  with
  | Some par_s, Some base_s ->
      let speedup = if par_s > 0. then base_s /. par_s else 0. in
      let hw = Domain.recommended_domain_count () in
      let floor = if hw >= 2 then 1.5 else 0.85 in
      Printf.printf "[gate] table2 speedup_vs_jobs1: %.2fx (floor %.2fx on %d-domain hardware)\n"
        speedup floor hw;
      if speedup < floor then begin
        Printf.eprintf "FAIL: table2 jobs=%d speedup %.2fx below the %.2fx gate\n"
          (Psm_par.default_jobs ()) speedup floor;
        exit 1
      end
  | Some _, None ->
      Printf.eprintf "FAIL: --gate needs the jobs=1 baseline; run with PSM_JOBS > 1\n";
      exit 1
  | None, _ ->
      Printf.eprintf "FAIL: --gate requires the table2 stage\n";
      exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let paper = List.mem "--paper" args in
  let gate = List.mem "--gate" args in
  let args = List.filter (fun a -> a <> "--paper" && a <> "--gate") args in
  let rec take_json acc = function
    | "--json" :: file :: rest -> (Some file, List.rev_append acc rest)
    | "--json" :: [] ->
        Printf.eprintf "--json requires a file argument\n";
        exit 2
    | a :: rest -> take_json (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_file, args = take_json [] args in
  let long_length = if paper then 500_000 else 120_000 in
  let eval_length = if paper then 500_000 else 120_000 in
  let ablation_eval = if paper then 100_000 else 40_000 in
  let whats = match args with [] -> [ "all" ] | ws -> ws in
  let what = String.concat "+" whats in
  let t0 = Unix.gettimeofday () in
  let stages =
    List.concat_map
      (fun w ->
        match stages_of ~long_length ~eval_length ~ablation_eval w with
        | Some stages -> stages
        | None ->
            Printf.eprintf
              "unknown command %s (expected \
               table1|table2|table3|figs|ablations|ingest|analyze|verify|evaluate|profile|stream|serve|micro|all)\n"
              w;
            exit 2)
      whats
  in
  let jobs = Psm_par.default_jobs () in
  let timings = List.map (fun (name, f) -> (name, timed f)) stages in
  (* Snapshot the metric blocks NOW: the jobs=1 baseline below re-runs
     the same stages, and reading the refs after it would report the
     silenced baseline's numbers as this run's. *)
  let metrics =
    List.filter
      (fun (_, entries) -> entries <> [])
      [ ("ingest", !ingest_metrics); ("analyze", !analyze_metrics);
        ("verify", !verify_metrics); ("evaluate", !evaluate_metrics);
        ("profile", !profile_metrics); ("stream", !stream_metrics);
        ("serve", !serve_metrics) ]
  in
  check_distinct_measurements metrics;
  let baseline =
    if jobs <= 1 || (json_file = None && not gate) then None
    else begin
      (* Re-run the same stages with the pool forced to one job to
         measure the fan-out's speedup on this machine. *)
      Printf.printf "\n[re-running %s with PSM_JOBS=1 for the baseline]\n%!" what;
      let baseline =
        silenced (fun () ->
            Psm_par.set_jobs 1;
            Fun.protect
              ~finally:(fun () -> Psm_par.set_jobs jobs)
              (fun () -> List.map (fun (name, f) -> (name, timed f)) stages))
      in
      Some baseline
    end
  in
  (match json_file with
  | None -> ()
  | Some file ->
      write_json file ~command:what ~paper ~jobs ~timings ~baseline ~metrics;
      Printf.printf "[--json: wrote %s]\n" file);
  if gate then begin
    (* Each gate applies only when its stage ran; --gate over a stage set
       with nothing to check is a configuration error, not a pass. *)
    let ran name = List.mem_assoc name timings in
    if
      not
        (ran "table2" || ran "evaluate" || ran "stream" || ran "verify"
        || ran "serve")
    then begin
      Printf.eprintf
        "FAIL: --gate requires at least one gated stage \
         (table2|evaluate|stream|verify|serve)\n";
      exit 1
    end;
    if ran "table2" then gate_table2_speedup ~timings ~baseline;
    if ran "verify" then
      gate_verify
        ~verify:(Option.value ~default:[] (List.assoc_opt "verify" metrics));
    if ran "stream" then
      gate_stream_heap
        ~stream:(Option.value ~default:[] (List.assoc_opt "stream" metrics));
    if ran "serve" then
      gate_serve
        ~serve:(Option.value ~default:[] (List.assoc_opt "serve" metrics))
  end;
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
