(* Integration tests: the end-to-end flow of paper Fig. 1 on the benchmark
   IPs (reduced lengths), the experiment harness and the report
   renderer. *)

module Flow = Psm_flow.Flow
module Experiment = Psm_flow.Experiment
module Report = Psm_flow.Report
module Workloads = Psm_ips.Workloads
module Psm = Psm_core.Psm
module Table = Psm_mining.Prop_trace.Table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let train_small name ip =
  let suite = Workloads.suite ~parts:3 ~total_length:9000 ~long:false name in
  Flow.train_on_ip ip suite

(* ---------- end-to-end per IP ---------- *)

let flow_case name make ~max_states ~max_mre =
  let ip = make () in
  let trained = train_small name ip in
  let psm = trained.Flow.optimized in
  check_bool "has states" true (Psm.state_count psm >= 2);
  check_bool
    (Printf.sprintf "compact (%d states)" (Psm.state_count psm))
    true
    (Psm.state_count psm <= max_states);
  check_bool "initials recorded" true (List.length (Psm.initial psm) = 3);
  let long = Workloads.long_for ~length:20000 name in
  let report, result = Flow.evaluate_on_ip trained ip long in
  check_bool
    (Printf.sprintf "MRE %.1f%% within band %.1f%%" (100. *. report.Psm_hmm.Accuracy.mre)
       (100. *. max_mre))
    true
    (report.Psm_hmm.Accuracy.mre <= max_mre);
  check_bool "wsp sane" true (result.Psm_hmm.Multi_sim.wsp <= 0.5)

let test_flow_ram () = flow_case "RAM" Psm_ips.Ram.create ~max_states:12 ~max_mre:0.06
let test_flow_multsum () = flow_case "MultSum" Psm_ips.Multsum.create ~max_states:8 ~max_mre:0.12
let test_flow_aes () = flow_case "AES" Psm_ips.Aes.create ~max_states:12 ~max_mre:0.10

let test_flow_camellia_band () =
  (* Camellia is the inaccurate one — and must stay that way (it is the
     paper's key negative result). *)
  let ip = Psm_ips.Camellia.create () in
  let trained = train_small "Camellia" ip in
  let long = Workloads.long_for ~length:20000 "Camellia" in
  let report, _ = Flow.evaluate_on_ip trained ip long in
  check_bool "high MRE" true (report.Psm_hmm.Accuracy.mre >= 0.15);
  check_bool "not absurd" true (report.Psm_hmm.Accuracy.mre <= 0.60)

let test_flow_ordering_matches_paper () =
  (* The paper's accuracy ordering: RAM best, AES/MultSum close, Camellia
     far worst. *)
  let mre name make =
    let ip = make () in
    let trained = train_small name ip in
    let long = Workloads.long_for ~length:15000 name in
    let report, _ = Flow.evaluate_on_ip trained ip long in
    report.Psm_hmm.Accuracy.mre
  in
  let ram = mre "RAM" Psm_ips.Ram.create in
  let camellia = mre "Camellia" Psm_ips.Camellia.create in
  let aes = mre "AES" Psm_ips.Aes.create in
  check_bool "RAM < AES" true (ram < aes);
  check_bool "AES << Camellia" true (aes *. 3. < camellia)

let test_flow_timings_populated () =
  let ip = Psm_ips.Multsum.create () in
  let trained = train_small "MultSum" ip in
  check_bool "timings non-negative" true
    (trained.Flow.timings.Flow.mine_s >= 0.
    && trained.Flow.timings.Flow.generate_s >= 0.
    && trained.Flow.timings.Flow.combine_s >= 0.);
  check_bool "total is the sum" true
    (abs_float
       (Flow.total_generation_s trained.Flow.timings
       -. (trained.Flow.timings.Flow.mine_s +. trained.Flow.timings.Flow.generate_s
          +. trained.Flow.timings.Flow.combine_s))
    < 1e-12)

let test_flow_validates_inputs () =
  check_bool "empty traces" true
    (try
       ignore (Flow.train ~traces:[] ~powers:[] ());
       false
     with Invalid_argument _ -> true)

let test_split_stimulus () =
  let stim = Workloads.ram_short ~length:1000 () in
  let parts = Flow.split_stimulus stim ~parts:3 in
  check_int "3 parts" 3 (List.length parts);
  check_int "lengths sum" 1000 (List.fold_left (fun a p -> a + Array.length p) 0 parts)

let test_split_stimulus_edges () =
  (* More parts than samples: min n parts single-sample chunks, never an
     empty chunk and never one unsplittable blob. *)
  let stim = Array.sub (Workloads.ram_short ~length:100 ()) 0 2 in
  let parts = Flow.split_stimulus stim ~parts:5 in
  check_int "clamped to n parts" 2 (List.length parts);
  List.iter (fun p -> check_int "single-sample chunk" 1 (Array.length p)) parts;
  check_int "one part passthrough" 1 (List.length (Flow.split_stimulus stim ~parts:1));
  (* The empty stimulus keeps its single empty chunk. *)
  (match Flow.split_stimulus [||] ~parts:4 with
  | [ [||] ] -> ()
  | _ -> Alcotest.fail "empty stimulus must yield one empty chunk");
  check_bool "zero parts rejected" true
    (try
       ignore (Flow.split_stimulus stim ~parts:0);
       false
     with Invalid_argument _ -> true)

let test_cosim_runs () =
  let ip = Psm_ips.Multsum.create () in
  let trained = train_small "MultSum" ip in
  let seconds = Flow.cosim_timed trained ip (Workloads.multsum_long ~length:2000 ()) in
  check_bool "positive time" true (seconds > 0.)

(* ---------- one combine table ---------- *)

(* Flow.train runs simplify and join on one Chain_table; composed
   through the public per-stage API they must give the same machine,
   optimize reports and training counts. *)
let check_one_table name (trained : Flow.trained) =
  let merge = trained.Flow.config.Flow.merge in
  let simplified, simplify_map = Psm_core.Simplify.simplify_traced ~config:merge trained.Flow.raw in
  let joined, join_map = Psm_core.Join.join_traced ~config:merge simplified in
  let optimized, reports =
    Psm_core.Optimize.optimize ~config:trained.Flow.config.Flow.optimize ~traces:trained.Flow.traces
      ~powers:trained.Flow.powers joined
  in
  let counts = Hashtbl.create 64 in
  let bump key n =
    Hashtbl.replace counts key (n +. Option.value ~default:0. (Hashtbl.find_opt counts key))
  in
  let final id = join_map (simplify_map id) in
  List.iter
    (fun (tr : Psm.transition) -> bump (final tr.Psm.src, final tr.Psm.dst) 1.)
    (Psm.transitions trained.Flow.raw);
  let transition_counts = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []) in
  Hashtbl.reset counts;
  List.iter
    (fun (s : Psm.state) ->
      List.iter
        (fun (iv : Psm_core.Power_attr.interval) ->
          Psm_mining.Prop_trace.iter_prop_runs
            trained.Flow.gammas.(iv.Psm_core.Power_attr.trace)
            ~start:iv.Psm_core.Power_attr.start ~stop:iv.Psm_core.Power_attr.stop
            (fun p ~start:_ ~len -> bump (s.Psm.id, p) (float_of_int len)))
        s.Psm.attr.Psm_core.Power_attr.intervals)
    (Psm.states optimized);
  let emission_counts = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []) in
  check_bool (name ^ ": states") true (Psm.states optimized = Psm.states trained.Flow.optimized);
  check_bool (name ^ ": transitions") true
    (Psm.transitions optimized = Psm.transitions trained.Flow.optimized);
  check_bool (name ^ ": initial") true (Psm.initial optimized = Psm.initial trained.Flow.optimized);
  check_bool (name ^ ": optimize reports") true (reports = trained.Flow.optimize_reports);
  check_bool (name ^ ": transition counts") true (transition_counts = trained.Flow.transition_counts);
  check_bool (name ^ ": emission counts") true (emission_counts = trained.Flow.emission_counts)

let test_one_table_table2 () =
  List.iter
    (fun (name, make) ->
      let suite =
        Workloads.suite ~total_length:(Workloads.paper_short_length name) ~long:false name
      in
      check_one_table name (Flow.train_on_ip (make ()) suite))
    [ ("RAM", Psm_ips.Ram.create);
      ("MultSum", Psm_ips.Multsum.create);
      ("AES", Psm_ips.Aes.create);
      ("Camellia", Psm_ips.Camellia.create) ]

let test_one_table_random =
  QCheck.Test.make ~count:40 ~name:"one combine table = simplify_traced then join_traced"
    (QCheck.make Test_stream.gen_pair) (fun pairs ->
      let traces, powers = List.split pairs in
      check_one_table "random" (Flow.train ~traces ~powers ());
      true)

(* ---------- experiment harness ---------- *)

let test_fig3_example () =
  let fig3 = Experiment.fig3_example () in
  let segments = Psm_mining.Prop_trace.segments fig3.Experiment.gamma in
  Alcotest.(check (list (triple int int int)))
    "paper segmentation"
    [ (0, 0, 2); (1, 3, 5); (2, 6, 6); (3, 7, 7) ]
    segments

let test_fig5_psm () =
  let fig3 = Experiment.fig3_example () in
  let psm = Experiment.fig5_psm fig3 in
  check_int "3 states" 3 (Psm.state_count psm);
  check_int "2 transitions" 2 (Psm.transition_count psm);
  (* The final state covers the trailing instant: ⟨p_c X p_d, 6, 7⟩. *)
  let last = List.nth (Psm.states psm) 2 in
  check_int "n = 2" 2 last.Psm.attr.Psm_core.Power_attr.n

let test_fig2_psm () =
  let psm = Experiment.fig2_psm () in
  check_int "3 states" 3 (Psm.state_count psm);
  check_int "4 transitions" 4 (Psm.transition_count psm);
  let dot = Psm_core.Dot.to_string psm in
  check_bool "renders" true (String.length dot > 100)

let test_table1_shape () =
  let rows = Experiment.table1 () in
  check_int "4 IPs" 4 (List.length rows);
  let ram = List.hd rows in
  check_int "RAM PIs" 44 ram.Experiment.pi_bits;
  check_int "RAM POs" 32 ram.Experiment.po_bits;
  check_bool "RAM memory elements >= 8192" true (ram.Experiment.memory_elements >= 8192);
  List.iter
    (fun r -> check_bool "positive memory" true (r.Experiment.memory_elements > 0))
    rows

(* The Lines column is fixed when the library is built, so it reads the
   same from any working directory. *)
let test_table1_lines_outside_checkout () =
  let dir = Filename.temp_dir "psm-table1" "" in
  let cwd = Sys.getcwd () in
  let rows =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir cwd;
        Sys.rmdir dir)
      (fun () ->
        Sys.chdir dir;
        Experiment.table1 ())
  in
  Alcotest.(check (list (pair string (option int))))
    "lines per IP"
    [ ("RAM", Some 96); ("MultSum", Some 137); ("AES", Some 292); ("Camellia", Some 430) ]
    (List.map (fun r -> (r.Experiment.t1_name, r.Experiment.lines)) rows)

let test_table2_row_shape () =
  let spec = List.nth Experiment.benchmark_ips 1 (* MultSum *) in
  let row = Experiment.table2_row ~total_length:6000 ~long:false spec in
  check_int "ts recorded" 6000 row.Experiment.ts;
  check_bool "states sane" true (row.Experiment.states >= 2 && row.Experiment.states <= 10);
  check_bool "transitions sane" true (row.Experiment.transitions >= 1);
  check_bool "mre sane" true (row.Experiment.mre >= 0. && row.Experiment.mre < 0.5);
  check_bool "times recorded" true (row.Experiment.px_s >= 0. && row.Experiment.gen_s >= 0.)

(* The capture fan-out inside [table2_row] runs on several domains; the
   model and its accuracy must not depend on the fan-out's width. *)
let test_table2_row_jobs_invariant () =
  let spec = List.nth Experiment.benchmark_ips 1 (* MultSum *) in
  let row jobs =
    let saved = Psm_par.default_jobs () in
    Psm_par.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Psm_par.set_jobs saved) (fun () ->
        Experiment.table2_row ~total_length:6000 ~long:false spec)
  in
  let seq = row 1 and par = row 4 in
  check_int "states" seq.Experiment.states par.Experiment.states;
  check_int "transitions" seq.Experiment.transitions par.Experiment.transitions;
  Alcotest.(check (float 0.)) "mre" seq.Experiment.mre par.Experiment.mre

let test_table3_row_shape () =
  let spec = List.hd Experiment.benchmark_ips (* RAM *) in
  let row = Experiment.table3_row ~eval_length:8000 spec in
  check_bool "ip sim time" true (row.Experiment.ip_sim_s > 0.);
  check_bool "cosim costs more" true (row.Experiment.ip_psm_s >= row.Experiment.ip_sim_s *. 0.5);
  check_bool "mre recorded" true (row.Experiment.t3_mre >= 0.)

(* ---------- coverage diagnostics ---------- *)

let test_coverage_full_on_training () =
  let ip = Psm_ips.Multsum.create () in
  let trained = train_small "MultSum" ip in
  let stim = Workloads.multsum_long ~length:8000 () in
  let trace, _ = Psm_ips.Capture.run ip stim in
  let report = Psm_flow.Coverage.of_trace trained.Flow.hmm trace in
  Alcotest.(check (float 1e-9)) "all rows known" 1. report.Psm_flow.Coverage.known_fraction;
  check_bool "visits most states" true
    (report.Psm_flow.Coverage.states_visited >= report.Psm_flow.Coverage.states_total - 1)

let test_coverage_flags_unknown_behaviour () =
  (* Train AES encrypt-only; decryption blocks produce unknown rows. *)
  let ip = Psm_ips.Aes.create () in
  let suite =
    Workloads.suite ~parts:2 ~total_length:6000 ~long:false "AES"
    |> List.map
         (Array.map (fun sample ->
              let sample = Array.copy sample in
              sample.(3) <- Psm_bits.Bits.zero 1;
              sample))
  in
  let trained = Flow.train_on_ip ip suite in
  let long = Workloads.aes_long ~length:6000 () in
  let trace, _ = Psm_ips.Capture.run ip long in
  let report = Psm_flow.Coverage.of_trace trained.Flow.hmm trace in
  check_bool "unknown rows found" true (report.Psm_flow.Coverage.known_fraction < 0.9);
  check_bool "samples reported" true (report.Psm_flow.Coverage.unknown_row_samples <> []);
  let text = Format.asprintf "%a" Psm_flow.Coverage.pp report in
  check_bool "report renders" true (String.length text > 40)

(* ---------- plot artifacts ---------- *)

let test_plot_artifacts () =
  let ip = Psm_ips.Multsum.create () in
  let trained = train_small "MultSum" ip in
  let stim = Workloads.multsum_long ~length:500 () in
  let trace, reference = Psm_ips.Capture.run ip stim in
  let result = Psm_hmm.Multi_sim.simulate trained.Flow.hmm trace in
  let dat = Psm_flow.Plot.data_string ~reference ~result in
  let lines = String.split_on_char '\n' dat |> List.filter (fun l -> l <> "") in
  check_int "header + one line per instant" 501 (List.length lines);
  let gp = Psm_flow.Plot.script_string ~basename:"x" ~title:"t" in
  check_bool "script mentions dat" true
    (let needle = "x.dat" in
     let n = String.length needle and h = String.length gp in
     let rec go i = i + n <= h && (String.sub gp i n = needle || go (i + 1)) in
     go 0)

(* ---------- report rendering ---------- *)

let test_render_table_alignment () =
  let rendered =
    Report.render_table ~header:[ "A"; "BB" ] [ [ "xxx"; "1" ]; [ "y"; "22" ] ]
  in
  let lines = String.split_on_char '\n' rendered |> List.filter (fun l -> l <> "") in
  check_int "4 lines" 4 (List.length lines);
  (* All lines equally wide. *)
  let widths = List.map String.length lines in
  check_bool "aligned" true (List.for_all (fun w -> w = List.hd widths) widths)

let test_percent_seconds () =
  Alcotest.(check string) "percent" "12.34%" (Report.percent 0.12341);
  Alcotest.(check string) "seconds" "1.50" (Report.seconds 1.499999)

let suite =
  ( "flow",
    [ Alcotest.test_case "RAM end-to-end" `Slow test_flow_ram;
      Alcotest.test_case "MultSum end-to-end" `Slow test_flow_multsum;
      Alcotest.test_case "AES end-to-end" `Slow test_flow_aes;
      Alcotest.test_case "Camellia stays inaccurate" `Slow test_flow_camellia_band;
      Alcotest.test_case "accuracy ordering" `Slow test_flow_ordering_matches_paper;
      Alcotest.test_case "timings" `Quick test_flow_timings_populated;
      Alcotest.test_case "input validation" `Quick test_flow_validates_inputs;
      Alcotest.test_case "split stimulus" `Quick test_split_stimulus;
      Alcotest.test_case "split stimulus edge cases" `Quick test_split_stimulus_edges;
      Alcotest.test_case "cosim" `Quick test_cosim_runs;
      Alcotest.test_case "Fig.3 example" `Quick test_fig3_example;
      Alcotest.test_case "Fig.5 PSM" `Quick test_fig5_psm;
      Alcotest.test_case "Fig.2 PSM" `Quick test_fig2_psm;
      Alcotest.test_case "Table I shape" `Quick test_table1_shape;
      Alcotest.test_case "Table I lines outside the checkout" `Quick
        test_table1_lines_outside_checkout;
      Alcotest.test_case "Table II row" `Slow test_table2_row_shape;
      Alcotest.test_case "Table II row at jobs 1 and 4" `Slow test_table2_row_jobs_invariant;
      Alcotest.test_case "Table III row" `Slow test_table3_row_shape;
      Alcotest.test_case "coverage on training" `Quick test_coverage_full_on_training;
      Alcotest.test_case "coverage flags unknowns" `Slow test_coverage_flags_unknown_behaviour;
      Alcotest.test_case "plot artifacts" `Quick test_plot_artifacts;
      Alcotest.test_case "table rendering" `Quick test_render_table_alignment;
      Alcotest.test_case "formatting" `Quick test_percent_seconds;
      Alcotest.test_case "one combine table (Table II suites)" `Slow test_one_table_table2;
      QCheck_alcotest.to_alcotest test_one_table_random ] )
