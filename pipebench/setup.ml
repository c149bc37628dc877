(* Set-up: everything a workload needs before its timed phase, written to
   files in the work directory. It runs in its own process, so none of
   it is in the heap the timed phase is measured in. *)

open Common
module Flow = Psm_flow.Flow
module Persist = Psm_flow.Persist

(* Cycle counts per IP. Training suites use the paper's Table II short-TS
   lengths; the rest are sized so one run stays within its time budget. *)
let paper_heldout_cycles = 50_000
let stream_cycles = 100_000
let stream_heldout_cycles = 20_000
let serve_heldout_cycles = 40_000

let vcd_path dir kind ip part = Filename.concat dir (Printf.sprintf "%s-%s-%d.vcd" kind ip part)
let heldout_path dir ip = vcd_path dir "heldout" ip 0
let model_path dir name = Filename.concat dir (Printf.sprintf "model-%s.psm" name)

let capture ip stimuli =
  Layers.time "ips.capture_s" (fun () ->
      List.map (fun s -> Psm_ips.Capture.run (ip_create ip) s) stimuli)

let write_vcds paths pairs =
  Layers.time "ips.vcd_write_s" (fun () ->
      List.iter2 (fun path (f, p) -> Psm_trace.Vcd.write_file ~power:p path f) paths pairs)

let write_suite dir ~seed ~role ~long ~total ~kind ip =
  let pairs = capture ip (suite ~seed ~role ~long ~total ip) in
  write_vcds (List.init (List.length pairs) (vcd_path dir kind ip)) pairs

let write_heldout dir ~seed ~role ~cycles ip =
  let stim = generator ~long:true ip ~length:cycles ~seed:(stimulus_seed ~seed ~role ~ip ~part:0) () in
  write_vcds [ heldout_path dir ip ] (capture ip [ stim ])

(* Served models are trained with every analyzer rule but the symbolic
   static-* ones, which take seconds on Camellia and which paper-train
   already runs on models of the same IPs and suite lengths. *)
let serve_config =
  let rules =
    List.filter_map
      (fun (r : Psm_analysis.Rule.t) ->
        let name = r.Psm_analysis.Rule.name in
        if String.starts_with ~prefix:"static-" name then None else Some name)
      (Psm_analysis.Analyzer.rules ())
  in
  { Flow.default with
    Flow.analysis = { Psm_analysis.Analyzer.default with Psm_analysis.Analyzer.rules = Some rules } }

(* BENCH_9's stress model: a synthetic IP with 160 power behaviours
   selected by an 8-bit mode register, mined into a 100+-state PSM. *)
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
  let samples = Array.make len [||] and powers = Array.make len 0. in
  for i = 0 to len - 1 do
    let b = i / dwell mod nbehaviors in
    let req = b land 1 in
    let busy = if b mod 3 = 0 then 1 else req in
    samples.(i) <- [| Bits.of_int ~width:8 b; Bits.of_int ~width:1 req; Bits.of_int ~width:1 busy |];
    powers.(i) <- (1.18 ** float_of_int b) *. (2. +. (0.3 *. float_of_int busy))
  done;
  Flow.train ~config:serve_config
    ~traces:[ Psm_trace.Functional_trace.of_samples iface samples ]
    ~powers:[ Psm_trace.Power_trace.of_array powers ]
    ()

let save_model dir name (trained : Flow.trained) =
  check
    (Printf.sprintf "served model %s has no Error findings" name)
    (Psm_analysis.Finding.errors trained.Flow.analysis = []);
  Persist.save_file (model_path dir name) trained

let run ~workload ~seed ~dir =
  let t0 = now () in
  (match workload with
  | "paper-train" ->
      List.iter
        (fun ip ->
          (* The paper's Table II short-TS suites, exactly as
             Workloads.suite builds them: the same for every seed, so the
             seed picks only the held-out traces. *)
          let pairs =
            capture ip
              (Psm_ips.Workloads.suite ~total_length:(Psm_ips.Workloads.paper_short_length ip)
                 ~long:false ip)
          in
          write_vcds (List.init (List.length pairs) (vcd_path dir "train" ip)) pairs;
          write_heldout dir ~seed ~role:Heldout ~cycles:paper_heldout_cycles ip)
        ips
  | "stream-long" ->
      List.iter
        (fun ip ->
          write_suite dir ~seed ~role:Train ~long:true ~total:stream_cycles ~kind:"long" ip;
          write_heldout dir ~seed ~role:Heldout ~cycles:stream_heldout_cycles ip)
        ips
  | "serve-fleet" ->
      List.iter
        (fun ip ->
          (* The served fleet is the same for every seed; only the
             traffic (held-out traces and the stress plan) follows it. *)
          let pairs =
            capture ip
              (suite ~seed:0 ~role:Serve_train ~long:false
                 ~total:(Psm_ips.Workloads.paper_short_length ip) ip)
          in
          save_model dir ip
            (Flow.train ~config:serve_config ~traces:(List.map fst pairs)
               ~powers:(List.map snd pairs) ());
          write_heldout dir ~seed ~role:Serve_heldout ~cycles:serve_heldout_cycles ip)
        ips;
      save_model dir "STRESS" (stress_model ())
  | w -> invalid_arg ("pipebench: unknown workload " ^ w));
  let setup_s = now () -. t0 in
  Printf.printf "{\"correct\": %b, \"setup_s\": %.17g, \"ips.capture_s\": %.17g, \"ips.vcd_write_s\": %.17g}\n"
    (!failed = 0) setup_s (Layers.get "ips.capture_s") (Layers.get "ips.vcd_write_s")
