module Ip = Psm_ips.Ip
module Workloads = Psm_ips.Workloads
module Capture = Psm_ips.Capture
module Interface = Psm_trace.Interface
module Signal = Psm_trace.Signal
module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Psm = Psm_core.Psm
module Bits = Psm_bits.Bits

type ip_spec = {
  ip_name : string;
  make : unit -> Ip.t;
  source_files : string list;
}

let benchmark_ips =
  [ { ip_name = "RAM";
      make = Psm_ips.Ram.create;
      source_files = [ "lib/ips/ram.ml" ] };
    { ip_name = "MultSum";
      make = Psm_ips.Multsum.create;
      source_files = [ "lib/ips/multsum.ml" ] };
    { ip_name = "AES";
      make = Psm_ips.Aes.create;
      source_files = [ "lib/ips/aes.ml"; "lib/ips/aes_core.ml" ] };
    { ip_name = "Camellia";
      make = Psm_ips.Camellia.create;
      source_files = [ "lib/ips/camellia.ml"; "lib/ips/camellia_core.ml" ] } ]

(* Relative end-to-end cost of one experiment cell per IP, as measured by
   the committed bench stage timings (a Camellia flow costs roughly 20x a
   MultSum flow at equal trace length — wider interface, more mined
   atoms, bigger model). These feed the fan-out's longest-processing-time
   schedule; only the ordering they induce matters, not calibration. *)
let ip_cost_weight = function
  | "Camellia" -> 20.
  | "AES" -> 6.
  | "RAM" -> 2.
  | _ -> 1.

let cell_cost ~ip_name ~length = ip_cost_weight ip_name *. float_of_int length

(* ---------- Table I ---------- *)

type table1_row = {
  t1_name : string;
  lines : int option;
  pi_bits : int;
  po_bits : int;
  elaboration_s : float option;
  gates : int option;
  logic_depth : int option;
  memory_elements : int;
}

let source_lines files =
  List.fold_left
    (fun acc file ->
      match (acc, List.assoc_opt file Source_lines.counts) with
      | Some total, Some n -> Some (total + n)
      | _ -> None)
    (Some 0) files

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let table1_row spec =
  let ip = spec.make () in
  let elaboration =
    match Psm_ips.Structural.netlist_for spec.ip_name with
    | None -> None
    | Some build ->
        let (nl, stats), seconds =
          timed (fun () ->
              let nl = build () in
              (nl, Psm_rtl.Netlist_stats.analyze nl))
        in
        ignore nl;
        Some (seconds, stats)
  in
  { t1_name = spec.ip_name;
    lines = source_lines spec.source_files;
    pi_bits = Ip.pi_bits ip;
    po_bits = Ip.po_bits ip;
    elaboration_s = Option.map fst elaboration;
    gates = Option.map (fun (_, s) -> s.Psm_rtl.Netlist_stats.gates_total) elaboration;
    logic_depth =
      Option.map (fun (_, s) -> s.Psm_rtl.Netlist_stats.logic_depth) elaboration;
    memory_elements = ip.Ip.memory_elements }

let table1 () =
  Psm_par.parallel_map
    ~cost:(fun spec -> ip_cost_weight spec.ip_name)
    table1_row benchmark_ips

(* ---------- Table II ---------- *)

type table2_row = {
  t2_name : string;
  ts : int;
  px_s : float;
  capture_s : float;
  gen_s : float;
  states : int;
  transitions : int;
  mre : float;
}

(* Gate-level power-simulation cost for [cycles] instants of the IP's
   workload: measured on up to [sample] cycles and scaled linearly (the
   levelized netlist simulator evaluates every gate every cycle, so its
   per-cycle cost is constant by construction). *)
let px_gate_seconds ?(sample = 6000) spec ~cycles ~long =
  match Psm_ips.Structural.create_for spec.ip_name with
  | None -> 0.
  | Some make ->
      let gate_ip = make () in
      let measured = min cycles sample in
      let stimulus =
        List.hd (Workloads.suite ~parts:1 ~total_length:measured ~long spec.ip_name)
      in
      let _, seconds = timed (fun () -> Capture.run gate_ip stimulus) in
      seconds *. (float_of_int cycles /. float_of_int measured)

let table2_row ?(config = Flow.default) ~total_length ~long spec =
  let suite = Workloads.suite ~total_length ~long spec.ip_name in
  let px_s = px_gate_seconds spec ~cycles:total_length ~long in
  (* One IP instance per workload so captures can run on separate domains
     (the behavioural models are stateful); [Capture.run] resets the IP,
     so a fresh instance observes exactly what a reused one would. *)
  let timed_captures =
    Psm_par.parallel_map
      (fun stimulus ->
        let ip = spec.make () in
        timed (fun () -> Capture.run ~config:config.Flow.power ip stimulus))
      suite
  in
  let capture_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. timed_captures in
  let captures = List.map fst timed_captures in
  let traces = List.map fst captures and powers = List.map snd captures in
  let trained = Flow.train ~config ~traces ~powers () in
  (* Accuracy on the training testset, as Table II reports. *)
  let total, errsum =
    List.fold_left2
      (fun (total, errsum) trace reference ->
        let report, _ = Flow.evaluate trained trace ~reference in
        let n = Functional_trace.length trace in
        (total + n, errsum +. (report.Psm_hmm.Accuracy.mre *. float_of_int n)))
      (0, 0.) traces powers
  in
  { t2_name = spec.ip_name;
    ts = total_length;
    px_s;
    capture_s;
    gen_s = Flow.total_generation_s trained.Flow.timings;
    states = Psm.state_count trained.Flow.optimized;
    transitions = Psm.transition_count trained.Flow.optimized;
    mre = errsum /. float_of_int total }

let table2 ?(short_lengths = true) ?(long_length = 500_000) () =
  (* Fan the whole (benchmark x workload-length) grid out at once: eight
     independent end-to-end flows, each worth seconds to minutes of
     gate-level simulation, mining and training. The cells are wildly
     heterogeneous (a long-TS Camellia cell costs two orders of magnitude
     more than a short-TS MultSum cell), so the schedule is cost-weighted:
     heavy cells are claimed first and the cheap ones fill the tail,
     instead of a dominant cell serializing the whole fan-out behind the
     last domain to pick it up. *)
  let cases =
    List.map
      (fun spec ->
        let total_length =
          if short_lengths then Workloads.paper_short_length spec.ip_name else 8000
        in
        (spec, total_length, false))
      benchmark_ips
    @ List.map (fun spec -> (spec, long_length, true)) benchmark_ips
  in
  Psm_par.parallel_map
    ~cost:(fun (spec, total_length, _) ->
      cell_cost ~ip_name:spec.ip_name ~length:total_length)
    (fun (spec, total_length, long) -> table2_row ~total_length ~long spec)
    cases

(* ---------- Table III ---------- *)

type table3_row = {
  t3_name : string;
  ip_sim_s : float;
  ip_psm_s : float;
  overhead : float;
  px_gate_s : float;
  speedup : float;
  t3_mre : float;
  wsp : float;
}

let table3_row ?(config = Flow.default) ~eval_length spec =
  let ip = spec.make () in
  let short_suite =
    Workloads.suite ~total_length:(Workloads.paper_short_length spec.ip_name)
      ~long:false spec.ip_name
  in
  let trained = Flow.train_on_ip ~config ip short_suite in
  let long = Workloads.long_for ~length:eval_length spec.ip_name in
  let ip_sim_s = Capture.run_timed ip long in
  let ip_psm_s = Flow.cosim_timed trained ip long in
  let px_gate_s = px_gate_seconds spec ~cycles:eval_length ~long:true in
  let report, result = Flow.evaluate_on_ip trained ip long in
  { t3_name = spec.ip_name;
    ip_sim_s;
    ip_psm_s;
    overhead = (if ip_sim_s > 0. then (ip_psm_s -. ip_sim_s) /. ip_sim_s else 0.);
    px_gate_s;
    speedup = (if ip_psm_s > 0. then px_gate_s /. ip_psm_s else 0.);
    t3_mre = report.Psm_hmm.Accuracy.mre;
    wsp = result.Psm_hmm.Multi_sim.wsp }

let table3 ?(eval_length = 500_000) () =
  Psm_par.parallel_map
    ~cost:(fun spec -> ip_cost_weight spec.ip_name)
    (fun spec -> table3_row ~eval_length spec)
    benchmark_ips

(* ---------- Fig. 2 ---------- *)

let fig2_psm () =
  let iface =
    Interface.create [ Signal.input "on" 1; Signal.input "ready" 1; Signal.input "start" 1 ]
  in
  let atoms =
    [ Psm_mining.Atomic.eq_const 0 (Bits.of_bool true);
      Psm_mining.Atomic.eq_const 1 (Bits.of_bool true);
      Psm_mining.Atomic.eq_const 2 (Bits.of_bool true) ]
  in
  let table = Psm_mining.Prop_trace.Table.create (Psm_mining.Vocabulary.create iface atoms) in
  let sample bits = Array.map Bits.of_bool bits in
  let p_off = Psm_mining.Prop_trace.Table.classify_or_add table (sample [| false; false; false |]) in
  let p_idle = Psm_mining.Prop_trace.Table.classify_or_add table (sample [| true; true; false |]) in
  let p_on = Psm_mining.Prop_trace.Table.classify_or_add table (sample [| true; true; true |]) in
  let attr mu : Psm_core.Power_attr.t = { mu; sigma = 0.; n = 100; intervals = [] } in
  let psm = Psm.empty table in
  let psm, off = Psm.add_state psm (Psm_core.Assertion.Until (p_off, p_idle)) (attr 0.) in
  let psm, idle = Psm.add_state psm (Psm_core.Assertion.Until (p_idle, p_on)) (attr 15e-3) in
  let psm, on = Psm.add_state psm (Psm_core.Assertion.Until (p_on, p_idle)) (attr 100e-3) in
  let psm = Psm.add_initial psm off in
  let psm = Psm.add_transition psm ~src:off ~guard:p_idle ~dst:idle in
  let psm = Psm.add_transition psm ~src:idle ~guard:p_on ~dst:on in
  let psm = Psm.add_transition psm ~src:on ~guard:p_idle ~dst:idle in
  let psm = Psm.add_transition psm ~src:idle ~guard:p_off ~dst:off in
  psm

(* ---------- Fig. 3 / Fig. 5 ---------- *)

type fig3 = {
  functional : Functional_trace.t;
  power : Power_trace.t;
  table : Psm_mining.Prop_trace.Table.t;
  gamma : Psm_mining.Prop_trace.t;
}

let fig3_example () =
  let iface =
    Interface.create
      [ Signal.input "v1" 1; Signal.input "v2" 1; Signal.input "v3" 3;
        Signal.output "v4" 3 ]
  in
  let row v1 v2 v3 v4 =
    [| Bits.of_bool v1; Bits.of_bool v2; Bits.of_int ~width:3 v3; Bits.of_int ~width:3 v4 |]
  in
  let functional =
    Functional_trace.of_samples iface
      [| row true false 3 1; row true false 3 1; row true false 3 1;
         row false true 3 3; row false true 4 4; row false true 2 2;
         row true true 0 0; row true true 3 1 |]
  in
  let power =
    Power_trace.of_array
      [| 3.349; 3.339; 3.353; 1.902; 1.906; 1.944; 3.350; 3.343 |]
  in
  (* The paper's chosen atoms: v1 = true, v2 = false, plus the v3/v4
     comparisons. (v2 = false is expressed as an atom on v2 so that its
     truth column matches Fig. 3's m matrix.) *)
  let atoms =
    [ Psm_mining.Atomic.eq_const 0 (Bits.of_bool true);
      Psm_mining.Atomic.eq_const 1 (Bits.of_bool false);
      Psm_mining.Atomic.compare_signals Psm_mining.Atomic.Gt 2 3;
      Psm_mining.Atomic.compare_signals Psm_mining.Atomic.Eq 2 3 ]
  in
  let table = Psm_mining.Prop_trace.Table.create (Psm_mining.Vocabulary.create iface atoms) in
  let gamma = Psm_mining.Prop_trace.of_functional table functional in
  { functional; power; table; gamma }

let fig5_psm fig3 =
  Psm_core.Generator.generate (Psm.empty fig3.table) ~trace:0 fig3.gamma fig3.power
