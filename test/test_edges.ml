(* Edge cases and failure injection across module boundaries: degenerate
   traces, single-state machines, printer totality. *)

module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module FT = Psm_trace.Functional_trace
module PT = Psm_trace.Power_trace
module Table = Psm_mining.Prop_trace.Table
module Psm = Psm_core.Psm
module Hmm = Psm_hmm.Hmm
module Multi_sim = Psm_hmm.Multi_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tiny_world values =
  let iface = Interface.create [ Signal.input "s" 4; Signal.output "o" 1 ] in
  let atoms = List.init 8 (fun v -> Psm_mining.Atomic.eq_const 0 (Bits.of_int ~width:4 v)) in
  let table = Table.create (Psm_mining.Vocabulary.create iface atoms) in
  let samples =
    Array.of_list (List.map (fun v -> [| Bits.of_int ~width:4 v; Bits.of_bool false |]) values)
  in
  let trace = FT.of_samples iface samples in
  let gamma = Psm_mining.Prop_trace.of_functional table trace in
  let delta = PT.of_array (Array.make (List.length values) 1.) in
  (table, trace, gamma, delta)

(* ---------- degenerate machines ---------- *)

let test_single_instant_trace () =
  let table, trace, gamma, delta = tiny_world [ 3 ] in
  let psm = Psm_core.Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  check_int "one state" 1 (Psm.state_count psm);
  let hmm = Hmm.build psm in
  let result = Multi_sim.simulate hmm trace in
  check_int "one estimate" 1 (Array.length result.Multi_sim.estimate);
  check_int "synced" 0 result.Multi_sim.wrong_instants

let test_single_state_absorbing () =
  let table, trace, gamma, delta = tiny_world [ 2; 2; 2; 2; 2 ] in
  let psm = Psm_core.Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  let hmm = Hmm.build psm in
  let result = Multi_sim.simulate hmm trace in
  check_int "no wrong instants" 0 result.Multi_sim.wrong_instants;
  (* A single absorbing state self-loops in A. *)
  Alcotest.(check (float 1e-9)) "self loop" 1. (Hmm.a hmm 0 0)

let test_simulate_on_wrong_interface_is_detected () =
  let table, _, gamma, delta = tiny_world [ 0; 0; 1; 1 ] in
  let psm = Psm_core.Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  let hmm = Hmm.build psm in
  (* A trace whose signal widths do not match the vocabulary: every
     sample classifies as an unknown row, so the machine must be fully
     desynchronized rather than producing confident estimates. *)
  let other = Interface.create [ Signal.input "x" 2; Signal.output "y" 1 ] in
  let bad =
    FT.of_samples other
      (Array.make 5 [| Bits.zero 2; Bits.zero 1 |])
  in
  let result = Multi_sim.simulate hmm bad in
  check_int "all instants flagged wrong" 5 result.Multi_sim.wrong_instants

let test_empty_psm_rejected_by_hmm () =
  let table, _, _, _ = tiny_world [ 0 ] in
  check_bool "raises" true
    (try
       ignore (Hmm.build (Psm.empty table));
       false
     with Invalid_argument _ -> true)

let test_stepper_counts_cycles () =
  let table, trace, gamma, delta = tiny_world [ 0; 0; 1; 1; 0; 0 ] in
  let psm = Psm_core.Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  let stepper = Multi_sim.Stepper.create (Hmm.build psm) in
  let tracker = Psm_mining.Sample_tracker.create table in
  FT.iter
    (fun _ sample ->
      Psm_mining.Sample_tracker.observe tracker sample;
      Multi_sim.Stepper.advance stepper ~hamming:(Psm_mining.Sample_tracker.hamming tracker)
        (Psm_mining.Sample_tracker.code tracker))
    trace;
  check_int "cycles" 6 (Multi_sim.Stepper.cycles stepper)

(* ---------- XU automaton protocol ---------- *)

let test_xu_protocol_observables () =
  let _, _, gamma, _ = tiny_world [ 0; 0; 1; 1 ] in
  let xu = Psm_core.Xu.initialize gamma in
  (* Before any call the FIFO holds the first two instants. *)
  (match Psm_core.Xu.fifo xu with
  | Some 0, Some 0 -> ()
  | _ -> Alcotest.fail "initial fifo");
  check_bool "starts in X" true (Psm_core.Xu.automaton_state xu = `X);
  ignore (Psm_core.Xu.get_assertion xu);
  (* After recognizing the until pattern the automaton returned to X. *)
  check_bool "back in X" true (Psm_core.Xu.automaton_state xu = `X)

(* ---------- printers are total ---------- *)

let test_printers_do_not_raise () =
  let table, trace, gamma, delta = tiny_world [ 0; 0; 1; 1; 2; 3; 3 ] in
  let psm = Psm_core.Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  let hmm = Hmm.build psm in
  let render pp v = ignore (Format.asprintf "%a" pp v) in
  render Psm.pp psm;
  render Hmm.pp hmm;
  render Psm_mining.Prop_trace.pp gamma;
  render Psm_mining.Vocabulary.pp (Table.vocabulary table);
  render FT.pp_summary trace;
  render PT.pp_summary delta;
  render Interface.pp (FT.interface trace);
  render Psm_trace.Trace_stats.pp_report trace;
  render Psm_rtl.Power_model.pp_config Psm_rtl.Power_model.default;
  List.iter
    (fun (s : Psm.state) -> render Psm_core.Power_attr.pp s.Psm.attr)
    (Psm.states psm);
  ignore (Psm_core.Dot.to_string psm);
  check_bool "all printers total" true true

let test_netlist_stats_pp () =
  let nl = Psm_ips.Multsum.structural_netlist () in
  let stats = Psm_rtl.Netlist_stats.analyze nl in
  let text = Format.asprintf "%a" Psm_rtl.Netlist_stats.pp stats in
  check_bool "non-empty" true (String.length text > 40)

(* ---------- accessor edge cases ---------- *)

let test_bits_to_int_too_wide () =
  check_bool "raises" true
    (try
       ignore (Bits.to_int (Bits.ones 70));
       false
     with Failure _ -> true)

let test_power_trace_bounds () =
  let p = PT.of_array [| 1.; 2. |] in
  check_bool "sub bad range" true
    (try
       ignore (PT.sub p ~start:1 ~stop:0);
       false
     with Invalid_argument _ -> true)

let test_interface_pp_contains_names () =
  let iface = Interface.create [ Signal.input "alpha" 3; Signal.output "beta" 1 ] in
  let text = Format.asprintf "%a" Interface.pp iface in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "alpha" true (contains "alpha");
  check_bool "beta" true (contains "beta")

let suite =
  ( "edges",
    [ Alcotest.test_case "single instant" `Quick test_single_instant_trace;
      Alcotest.test_case "single absorbing state" `Quick test_single_state_absorbing;
      Alcotest.test_case "wrong interface detected" `Quick
        test_simulate_on_wrong_interface_is_detected;
      Alcotest.test_case "empty PSM rejected" `Quick test_empty_psm_rejected_by_hmm;
      Alcotest.test_case "stepper cycle count" `Quick test_stepper_counts_cycles;
      Alcotest.test_case "XU protocol observables" `Quick test_xu_protocol_observables;
      Alcotest.test_case "printers total" `Quick test_printers_do_not_raise;
      Alcotest.test_case "netlist stats pp" `Quick test_netlist_stats_pp;
      Alcotest.test_case "to_int overflow" `Quick test_bits_to_int_too_wide;
      Alcotest.test_case "power trace bounds" `Quick test_power_trace_bounds;
      Alcotest.test_case "interface pp" `Quick test_interface_pp_contains_names ] )
