(* The pipeline benchmark's entry point.

     main.exe setup --workload W --seed N --dir D
     main.exe run --workload W --seed N --seconds S --trace 0|1 --dir D
                  --setup-s X --capture-s Y --vcd-write-s Z

   [setup] writes a workload's inputs to D and prints its timings as one
   JSON line. [run] measures the workload over the files in D for S
   seconds and prints, as its last line, the result object: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. pipebench/run.py drives both. *)

open Common

let workloads = [ "paper-train"; "stream-long"; "serve-fleet" ]

(* The registered analyzer rules, each timed alone
   (analysis.rule_s.<rule>); listed here so the key set stays fixed. *)
let rules =
  [ "determinism"; "reachability"; "stall"; "attr-sanity"; "conservation"; "hmm-consistency";
    "hmm-stochastic"; "hmm-emission"; "static-feasibility"; "static-disjointness";
    "static-coverage"; "static-vacuity" ]

let end_to_end =
  [ ("setup_s", "s"); ("cycles_per_s", "cycles/s"); ("est_mre", "%"); ("peak_heap_mb", "MB") ]

let per_layer =
  let per_ip name unit = List.map (fun ip -> (name ^ "." ^ ip, unit)) ips in
  [ ("trace.ingest_s", "s"); ("trace.ingest_mb_per_s", "MB/s"); ("trace.runs_per_cycle", "ratio") ]
  @ per_ip "trace.runs_per_cycle" "ratio"
  @ [ ("mining.mine_s", "s"); ("mining.props", "count"); ("mining.alloc_words_per_cycle", "words/cycle");
      ("core.generate_s", "s"); ("core.combine_s", "s"); ("core.raw_states", "count");
      ("core.states", "count") ]
  @ per_ip "core.states" "count"
  @ [ ("analysis.raw_s", "s"); ("analysis.final_s", "s") ]
  @ per_ip "analysis.raw_s" "s"
  @ per_ip "analysis.final_s" "s"
  @ List.map (fun r -> ("analysis.rule_s." ^ r, "s")) rules
  @ [ ("analysis.errors", "count"); ("hmm.build_s", "s"); ("hmm.simulate_s", "s");
      ("hmm.estimate_cycles_per_s", "cycles/s"); ("hmm.wsp", "ratio");
      ("hmm.resync_events", "count"); ("hmm.alloc_words_per_cycle", "words/cycle");
      ("flow.persist_save_s", "s"); ("flow.persist_load_s", "s"); ("flow.model_bytes", "bytes") ]
  @ per_ip "flow.train_s" "s"
  @ [ ("serve.submit_s", "s"); ("serve.vcd_chunk_s", "s"); ("serve.tick_s", "s");
      ("serve.take_s", "s"); ("serve.ticks", "count"); ("serve.sweeps", "count");
      ("serve.rejected", "count"); ("serve.tick_p50_ms", "ms"); ("serve.tick_p99_ms", "ms");
      ("ips.capture_s", "s"); ("ips.vcd_write_s", "s"); ("pass_s", "s");
      ("unattributed_frac", "ratio"); ("tracing_overhead_frac", "ratio"); ("jobs", "count");
      ("failed_frac", "ratio"); ("wall_cycles_per_s", "cycles/s"); ("host.probe_s", "s") ]

(* stream-long is not in BENCHMARK.json (see README.md); run by hand, it
   also reports the layer metrics of its two streaming passes. *)
let stream_layer =
  [ ("flow.stream_mine_pass_s", "s"); ("flow.stream_train_pass_s", "s");
    ("flow.stream_compactions", "count") ]

let result_line ~metrics names =
  let value name =
    let v = Option.value ~default:0. (List.assoc_opt name metrics) in
    if Float.is_finite v then v
    else begin
      fail (Printf.sprintf "metric %s is not finite" name);
      0.
    end
  in
  let fields =
    List.map
      (fun (name, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (value name) unit)
      names
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed (String.concat ", " fields)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> opt name rest
    | [] -> failwith ("missing " ^ name)
  in
  let workload = opt "--workload" args in
  if not (List.mem workload workloads) then failwith ("unknown workload " ^ workload);
  let seed = int_of_string (opt "--seed" args) in
  let dir = opt "--dir" args in
  Psm_par.set_jobs jobs;
  match List.nth args 1 with
  | "setup" ->
      Layers.tracing := true;
      Setup.run ~workload ~seed ~dir
  | "run" ->
      let seconds = float_of_string (opt "--seconds" args) in
      let trace = opt "--trace" args = "1" in
      let untraced =
        match workload with
        | "paper-train" -> Paper_train.run ~dir ~seconds ~trace
        | "stream-long" -> Stream_long.run ~dir ~seconds ~trace
        | _ -> Serve_fleet.run ~dir ~seed ~seconds ~trace
      in
      let setup =
        [ ("setup_s", float_of_string (opt "--setup-s" args));
          ("ips.capture_s", float_of_string (opt "--capture-s" args));
          ("ips.vcd_write_s", float_of_string (opt "--vcd-write-s" args)) ]
      in
      let layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) Layers.values [] in
      let metrics =
        untraced @ setup @ layers
        @ [ ("jobs", float_of_int jobs);
            ("failed_frac", ratio (float_of_int !failed) (float_of_int !attempted)) ]
      in
      Printf.printf "jobs %d, %d checks and operations, %d failed\n" jobs !attempted !failed;
      let names =
        if not trace then end_to_end
        else if workload = "stream-long" then per_layer @ stream_layer
        else per_layer
      in
      print_endline (result_line ~metrics names);
      exit (if !failed = 0 then 0 else 1)
  | cmd -> failwith ("unknown command " ^ cmd)
