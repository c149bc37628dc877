(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section and runs the design-choice ablations called out in
   DESIGN.md.

   Usage:
     main.exe [table1|table2|table3|figs|ablations|all]
              [--paper] [--json FILE] [--gate]

   Default (no arguments): everything, with the long-TS/evaluation lengths
   scaled down to 120k instants so the full run completes in minutes.
   [--paper] restores the paper's 500000-instant workloads.

   [--json FILE] additionally writes per-stage wall-clock timings to FILE;
   when PSM_JOBS > 1 the requested stages are re-run (silenced) with the
   fan-out forced to one job, so the file also records the measured
   speedup of the parallel fan-out over the sequential baseline.
   [--gate] exits 1 when table2's speedup over that baseline misses its
   floor. *)

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

(* ---------- Driver ---------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

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
  match what with
  | "table1" -> Some [ table1 ]
  | "table2" -> Some [ table2 ]
  | "table3" -> Some [ table3 ]
  | "figs" -> Some [ figs ]
  | "ablations" -> Some [ ablations ]
  | "all" -> Some [ table1; table2; table3; figs; ablations ]
  | _ -> None

let write_json file ~command ~paper ~jobs ~timings ~baseline =
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
  out "  \"total_seconds\": %.3f" total;
  (match baseline_total with
  | Some base ->
      out ",\n  \"jobs1_total_seconds\": %.3f,\n  \"speedup_vs_jobs1\": %.3f\n" base
        (if total > 0. then base /. total else 0.)
  | None -> out "\n");
  out "}\n";
  close_out oc

(* The hardware-conditional CI gate: a 1-core host cannot speed anything
   up by parallelism, but after the domain clamp PSM_JOBS=4 must at least
   be a no-op there (BENCH_1 recorded 0.26×; that must never return).
   Both sides are medians of [gate_passes] timed passes: one pass per
   side read 1.54–2.24× over six runs of the same code. *)
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

(* Timed passes of the gated stage per side under --gate; every other
   stage, and every stage without --gate, is timed once. *)
let gate_passes = 3

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
              "unknown command %s (expected table1|table2|table3|figs|ablations|all)\n"
              w;
            exit 2)
      whats
  in
  let jobs = Psm_par.default_jobs () in
  let passes name = if gate && name = "table2" then gate_passes else 1 in
  (* Each stage's first pass prints its output; the repeats are silenced,
     and the stage's time is the median of its passes. *)
  let time_stage (name, f) =
    let first = timed f in
    (name, median (first :: List.init (passes name - 1) (fun _ -> silenced (fun () -> timed f))))
  in
  let timings = List.map time_stage stages in
  let baseline =
    if jobs <= 1 || (json_file = None && not gate) then None
    else begin
      (* Re-run the same stages with the fan-out forced to one job to
         measure the fan-out's speedup on this machine. *)
      Printf.printf "\n[re-running %s with PSM_JOBS=1 for the baseline]\n%!" what;
      let baseline =
        silenced (fun () ->
            Psm_par.set_jobs 1;
            Fun.protect
              ~finally:(fun () -> Psm_par.set_jobs jobs)
              (fun () ->
                List.map
                  (fun (name, f) -> (name, median (List.init (passes name) (fun _ -> timed f))))
                  stages))
      in
      Some baseline
    end
  in
  (match json_file with
  | None -> ()
  | Some file ->
      write_json file ~command:what ~paper ~jobs ~timings ~baseline;
      Printf.printf "[--json: wrote %s]\n" file);
  if gate then gate_table2_speedup ~timings ~baseline;
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
