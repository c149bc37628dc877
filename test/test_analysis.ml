(* Tests for the static model-checking subsystem (Psm_analysis): clean
   trained models lint clean, seeded corruptions yield the expected
   findings in text and JSON, the full pipeline is lint-clean as a QCheck
   invariant, and persisted models stay lint-clean across a round-trip. *)

module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module FT = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Atomic = Psm_mining.Atomic
module Vocabulary = Psm_mining.Vocabulary
module Miner = Psm_mining.Miner
module Prop_trace = Psm_mining.Prop_trace
module Table = Prop_trace.Table
module Assertion = Psm_core.Assertion
module Power_attr = Psm_core.Power_attr
module Psm = Psm_core.Psm
module Hmm = Psm_hmm.Hmm
module Flow = Psm_flow.Flow
module Persist = Psm_flow.Persist
module Workloads = Psm_ips.Workloads
module Finding = Psm_analysis.Finding
module Rule = Psm_analysis.Rule
module Rules_hmm = Psm_analysis.Rules_hmm
module Analyzer = Psm_analysis.Analyzer
module Report = Psm_analysis.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let errors_of findings = List.length (Finding.errors findings)

let has ~rule ~severity findings =
  List.exists
    (fun (f : Finding.t) -> f.Finding.rule = rule && f.Finding.severity = severity)
    findings

let has_at ~rule ~severity ~location findings =
  List.exists
    (fun (f : Finding.t) ->
      f.Finding.rule = rule
      && f.Finding.severity = severity
      && f.Finding.location = location)
    findings

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------- a tiny hand-built world over one 1-bit signal ---------- *)

let tiny_table () =
  let iface = Interface.create [ Signal.input "a" 1 ] in
  let vocabulary = Vocabulary.create iface [ Atomic.eq_const 0 (Bits.of_bool true) ] in
  let table = Table.create vocabulary in
  let p_hi = Table.intern_row table [| true |] in
  let p_lo = Table.intern_row table [| false |] in
  (iface, table, p_hi, p_lo)

let attr ?(sigma = 0.) ~mu ~trace ~start ~stop () =
  { Power_attr.mu;
    sigma;
    n = stop - start + 1;
    intervals = [ { Power_attr.trace; start; stop } ] }

(* ---------- clean trained models ---------- *)

(* Flow.train analyzes only the combined model, so the check that the
   generator's chains are sound lives here: with the full training Γ and
   power, the raw chains carry no Error finding. A generator bug is then
   blamed on the generator, not on simplify or join. *)
let raw_errors (trained : Flow.trained) =
  Finding.errors
    (Analyzer.analyze ~gammas:trained.Flow.gammas ~powers:trained.Flow.powers trained.Flow.raw)

let test_trained_model_clean () =
  let ip = Psm_ips.Ram.create () in
  let suite = Workloads.suite ~parts:3 ~total_length:9000 ~long:false "RAM" in
  let trained = Flow.train_on_ip ip suite in
  check_int "no errors recorded at train time" 0 (errors_of trained.Flow.analysis);
  check_int "raw chains without errors" 0 (List.length (raw_errors trained));
  let relint = Flow.lint trained in
  check_int "re-lint agrees" 0 (errors_of relint);
  check_bool "analyze time recorded" true (trained.Flow.timings.Flow.analyze_s >= 0.)

let test_trained_model_clean_all_ips () =
  List.iter
    (fun (name, make) ->
      let ip : Psm_ips.Ip.t = make () in
      let suite = Workloads.suite ~parts:3 ~total_length:6000 ~long:false name in
      let trained = Flow.train_on_ip ip suite in
      check_int (name ^ " lints without errors") 0 (errors_of trained.Flow.analysis);
      check_int (name ^ " raw chains without errors") 0 (List.length (raw_errors trained)))
    [ ("MultSum", Psm_ips.Multsum.create);
      ("AES", Psm_ips.Aes.create);
      ("FIFO", Psm_ips.Fifo.create) ]

(* ---------- seeded corruptions ---------- *)

let corrupted_model () =
  (* s0 --p_lo--> s1 and s0 --p_lo--> s2: overlapping guards (the same
     proposition enables two transitions); s1 carries sigma < 0; s3 is
     unreachable. *)
  let _iface, table, p_hi, p_lo = tiny_table () in
  let psm = Psm.empty table in
  let psm, s0 =
    Psm.add_state psm (Assertion.Until (p_hi, p_lo)) (attr ~mu:1. ~trace:0 ~start:0 ~stop:3 ())
  in
  let psm, s1 =
    Psm.add_state psm
      (Assertion.Until (p_lo, p_hi))
      { (attr ~mu:2. ~trace:0 ~start:4 ~stop:7 ()) with Power_attr.sigma = -0.5 }
  in
  let psm, s2 =
    Psm.add_state psm (Assertion.Next (p_lo, p_hi)) (attr ~mu:3. ~trace:0 ~start:8 ~stop:8 ())
  in
  let psm, s3 =
    Psm.add_state psm (Assertion.Next (p_hi, p_lo)) (attr ~mu:4. ~trace:1 ~start:0 ~stop:0 ())
  in
  let psm = Psm.add_transition psm ~src:s0 ~guard:p_lo ~dst:s1 in
  let psm = Psm.add_transition psm ~src:s0 ~guard:p_lo ~dst:s2 in
  let psm = Psm.add_initial psm s0 in
  (psm, s0, s1, s2, s3)

let test_corrupted_psm_findings () =
  let psm, _, s1, _, s3 = corrupted_model () in
  let findings = Analyzer.analyze psm in
  check_bool "overlapping guards -> determinism warning" true
    (has ~rule:"determinism" ~severity:Finding.Warning findings);
  check_bool "sigma < 0 -> attr-sanity error" true
    (has_at ~rule:"attr-sanity" ~severity:Finding.Error ~location:(Finding.State s1)
       findings);
  check_bool "unreachable state -> reachability warning" true
    (has_at ~rule:"reachability" ~severity:Finding.Warning ~location:(Finding.State s3)
       findings);
  (* Reporters carry the same findings. *)
  let text = Report.text findings in
  check_bool "text mentions attr-sanity" true (contains text "attr-sanity");
  check_bool "text mentions the negative sigma" true (contains text "negative");
  let json = Report.json findings in
  check_bool "json has error severity" true (contains json "\"severity\":\"error\"");
  check_bool "json has state location" true (contains json "{\"kind\":\"state\"")

let test_corrupted_hmm_findings () =
  (* A clean two-state machine whose A matrix is then corrupted in place:
     the row no longer sums to 1. *)
  let _iface, table, p_hi, p_lo = tiny_table () in
  let psm = Psm.empty table in
  let psm, s0 =
    Psm.add_state psm (Assertion.Until (p_hi, p_lo)) (attr ~mu:1. ~trace:0 ~start:0 ~stop:3 ())
  in
  let psm, s1 =
    Psm.add_state psm (Assertion.Until (p_lo, p_hi)) (attr ~mu:2. ~trace:0 ~start:4 ~stop:7 ())
  in
  let psm = Psm.add_transition psm ~src:s0 ~guard:p_lo ~dst:s1 in
  let psm = Psm.add_transition psm ~src:s1 ~guard:p_hi ~dst:s0 in
  let psm = Psm.add_initial psm s0 in
  let hmm = Hmm.build psm in
  check_int "clean HMM lints clean" 0 (errors_of (Analyzer.analyze ~hmm psm));
  Hmm.unsafe_set_a hmm ~row:0 ~col:1 5.;
  let findings = Analyzer.analyze ~hmm psm in
  check_bool "non-stochastic A row -> hmm-stochastic error" true
    (has ~rule:"hmm-stochastic" ~severity:Finding.Error findings);
  let json = Report.json findings in
  check_bool "json locates the hmm row" true
    (contains json "{\"kind\":\"hmm-row\",\"row\":0}")

let test_stochastic_row_primitive () =
  let row what values =
    Rules_hmm.check_stochastic_row ~eps:1e-6 ~location:Finding.Model ~what values
  in
  check_bool "sum != 1 is an error" true (Finding.errors (row "A[0]" [| 0.7; 0.7 |]) <> []);
  check_bool "NaN is an error" true (Finding.errors (row "r" [| Float.nan; 1. |]) <> []);
  check_bool "negative mass is an error" true
    (Finding.errors (row "r" [| -0.5; 1.5 |]) <> []);
  let zero = row "r" [| 0.; 0. |] in
  check_bool "all-zero row is a warning, not an error" true
    (Finding.errors zero = [] && zero <> []);
  check_int "clean row" 0 (List.length (row "r" [| 0.25; 0.75 |]))

(* ---------- stall and conservation need the training context ---------- *)

let stall_world () =
  (* Γ = p_hi p_hi p_lo over trace [1;1;0]: s0 active on [0..1], then the
     run continues with p_lo. *)
  let iface, table, p_hi, p_lo = tiny_table () in
  let trace =
    FT.of_samples iface
      [| [| Bits.of_bool true |]; [| Bits.of_bool true |]; [| Bits.of_bool false |] |]
  in
  let gamma = Prop_trace.of_functional table trace in
  let power = Power_trace.of_array [| 1.; 1.; 3. |] in
  (table, p_hi, p_lo, gamma, power)

let test_stall_detection () =
  let table, p_hi, p_lo, gamma, power = stall_world () in
  let psm = Psm.empty table in
  let psm, s0 =
    Psm.add_state psm (Assertion.Until (p_hi, p_lo))
      (attr ~mu:1. ~trace:0 ~start:0 ~stop:1 ())
  in
  let psm, s1 =
    Psm.add_state psm (Assertion.Until (p_lo, p_lo))
      (attr ~mu:3. ~trace:0 ~start:2 ~stop:2 ())
  in
  let psm = Psm.add_initial psm s0 in
  let covered = Psm.add_transition psm ~src:s0 ~guard:p_lo ~dst:s1 in
  let gammas = [| gamma |] and powers = [| power |] in
  check_int "guarded continuation lints clean" 0
    (errors_of (Analyzer.analyze ~gammas ~powers covered));
  (* Without the transition, s0 stalls: the training run continues with
     p_lo but no guard covers it. *)
  let findings = Analyzer.analyze ~gammas ~powers psm in
  check_bool "stall error on s0" true
    (has_at ~rule:"stall" ~severity:Finding.Error ~location:(Finding.State s0) findings)

let test_conservation_detection () =
  let table, p_hi, p_lo, gamma, power = stall_world () in
  let psm = Psm.empty table in
  let psm, s0 =
    Psm.add_state psm (Assertion.Until (p_hi, p_lo))
      (attr ~mu:1. ~trace:0 ~start:0 ~stop:1 ())
  in
  let psm, s1 =
    Psm.add_state psm (Assertion.Until (p_lo, p_lo))
      (* Claims instant 2 (power 3.0) but records mu = 2.5. *)
      (attr ~mu:2.5 ~trace:0 ~start:2 ~stop:2 ())
  in
  let psm = Psm.add_transition psm ~src:s0 ~guard:p_lo ~dst:s1 in
  let psm = Psm.add_initial psm s0 in
  let findings = Analyzer.analyze ~gammas:[| gamma |] ~powers:[| power |] psm in
  check_bool "mu mismatch -> conservation error on s1" true
    (has_at ~rule:"conservation" ~severity:Finding.Error ~location:(Finding.State s1)
       findings)

let test_coverage_gap_detection () =
  let table, p_hi, _p_lo, gamma, power = stall_world () in
  let psm = Psm.empty table in
  (* Only instants [0..1] are claimed; instant 2 belongs to no state. *)
  let psm, s0 =
    Psm.add_state psm (Assertion.Until (p_hi, p_hi))
      (attr ~mu:1. ~trace:0 ~start:0 ~stop:1 ())
  in
  let psm = Psm.add_initial psm s0 in
  ignore s0;
  let findings = Analyzer.analyze ~gammas:[| gamma |] ~powers:[| power |] psm in
  check_bool "gap -> conservation error at model" true
    (has_at ~rule:"conservation" ~severity:Finding.Error ~location:Finding.Model findings)

(* ---------- analyzer mechanics ---------- *)

let test_strict_mode_raises () =
  let psm, _, _, _, _ = corrupted_model () in
  let config = { Analyzer.default with Analyzer.strict = true } in
  match Analyzer.analyze ~config psm with
  | _ -> Alcotest.fail "strict mode did not raise"
  | exception Analyzer.Strict_failure errors ->
      check_bool "carries only errors" true
        (errors <> []
        && List.for_all
             (fun (f : Finding.t) -> f.Finding.severity = Finding.Error)
             errors)

let test_rule_selection () =
  let psm, _, _, _, _ = corrupted_model () in
  let config = { Analyzer.default with Analyzer.rules = Some [ "reachability" ] } in
  let findings = Analyzer.analyze ~config psm in
  check_bool "only the selected rule fires" true
    (findings <> []
    && List.for_all (fun (f : Finding.t) -> f.Finding.rule = "reachability") findings);
  match Analyzer.analyze ~config:{ config with Analyzer.rules = Some [ "no-such" ] } psm with
  | _ -> Alcotest.fail "unknown rule accepted"
  | exception Invalid_argument _ -> ()

let test_registry_lists_builtins () =
  let names = List.map (fun (r : Rule.t) -> r.Rule.name) (Analyzer.rules ()) in
  List.iter
    (fun expected -> check_bool ("registry has " ^ expected) true (List.mem expected names))
    [ "determinism"; "reachability"; "stall"; "attr-sanity"; "conservation";
      "hmm-consistency"; "hmm-stochastic"; "hmm-emission";
      "static-feasibility"; "static-disjointness"; "static-coverage";
      "static-vacuity" ]

(* ---------- persistence round-trip stays lint-clean ---------- *)

let test_persist_roundtrip_lint_clean () =
  let ip = Psm_ips.Ram.create () in
  let suite = Workloads.suite ~parts:3 ~total_length:9000 ~long:false "RAM" in
  let trained = Flow.train_on_ip ip suite in
  check_int "clean before save" 0 (errors_of trained.Flow.analysis);
  let model = Persist.load (Persist.save trained) in
  let findings = Analyzer.analyze ~hmm:model.Persist.hmm model.Persist.psm in
  check_int "clean after save + load" 0 (errors_of findings)

(* ---------- the pipeline invariant, as a QCheck property ---------- *)

let arb_training_set =
  let gen =
    QCheck.Gen.(
      let iface =
        Interface.create
          [ Signal.input "a" 1; Signal.input "b" 4; Signal.output "c" 4 ]
      in
      let trace_gen =
        let* n = int_range 40 120 in
        let* samples =
          list_size (return n)
            (map2
               (fun a b ->
                 [| Bits.of_bool a;
                    Bits.of_int ~width:4 (b land 15);
                    Bits.of_int ~width:4 ((b * 3) land 15) |])
               bool (int_bound 20))
        in
        let functional = FT.of_samples iface (Array.of_list samples) in
        let* powers =
          list_size (return n) (map (fun p -> float_of_int p /. 7.) (int_bound 50))
        in
        return (functional, Power_trace.of_array (Array.of_list powers))
      in
      let* traces = int_range 1 3 in
      list_size (return traces) trace_gen)
  in
  QCheck.make gen

let lax_flow_config =
  { Flow.default with
    Flow.miner =
      { Miner.default with
        Miner.min_support = 0.02;
        min_mean_run = 1.;
        max_short_run_fraction = 1.0 } }

(* The combined model and the generator's raw chains are both free of
   Error findings. *)
let pipeline_lint_clean training =
  let traces = List.map fst training and powers = List.map snd training in
  let trained = Flow.train ~config:lax_flow_config ~traces ~powers () in
  Finding.errors trained.Flow.analysis = [] && raw_errors trained = []

(* ---------- the generator's raw chains ---------- *)

(* The four paper IPs' Table II training suites. *)
let test_raw_chains_clean_table2 () =
  List.iter
    (fun (name, make) ->
      let suite =
        Workloads.suite ~total_length:(Workloads.paper_short_length name) ~long:false name
      in
      let trained = Flow.train_on_ip (make ()) suite in
      match raw_errors trained with
      | [] -> ()
      | errors ->
          Alcotest.failf "%s raw chains: %d error(s), first: %s" name (List.length errors)
            (Format.asprintf "%a" Finding.pp (List.hd errors)))
    [ ("RAM", Psm_ips.Ram.create);
      ("MultSum", Psm_ips.Multsum.create);
      ("AES", Psm_ips.Aes.create);
      ("Camellia", Psm_ips.Camellia.create) ]

let properties =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40 ~name:"train->simplify->join->hmm is lint-clean"
         arb_training_set pipeline_lint_clean) ]

let suite =
  ( "analysis",
    [ Alcotest.test_case "trained RAM model is clean" `Quick test_trained_model_clean;
      Alcotest.test_case "other IPs are clean" `Quick test_trained_model_clean_all_ips;
      Alcotest.test_case "corrupted PSM findings" `Quick test_corrupted_psm_findings;
      Alcotest.test_case "corrupted HMM findings" `Quick test_corrupted_hmm_findings;
      Alcotest.test_case "stochastic row primitive" `Quick test_stochastic_row_primitive;
      Alcotest.test_case "stall detection" `Quick test_stall_detection;
      Alcotest.test_case "conservation detection" `Quick test_conservation_detection;
      Alcotest.test_case "coverage gap detection" `Quick test_coverage_gap_detection;
      Alcotest.test_case "strict mode raises" `Quick test_strict_mode_raises;
      Alcotest.test_case "rule selection" `Quick test_rule_selection;
      Alcotest.test_case "registry lists builtins" `Quick test_registry_lists_builtins;
      Alcotest.test_case "persist round-trip stays clean" `Quick
        test_persist_roundtrip_lint_clean;
      Alcotest.test_case "Table II raw chains have no Error finding" `Quick
        test_raw_chains_clean_table2 ]
    @ properties )
