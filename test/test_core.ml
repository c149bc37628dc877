(* Tests for Psm_core: assertions, power attributes, the PSM structure,
   the XU automaton, PSMGenerator, mergeability, simplify, join, the
   data-dependent-state optimization, single-chain simulation and the dot
   exporter. Includes the paper's Figs. 5 and 6 as golden tests. *)

module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module FT = Psm_trace.Functional_trace
module PT = Psm_trace.Power_trace
module Assertion = Psm_core.Assertion
module Power_attr = Psm_core.Power_attr
module Psm = Psm_core.Psm
module Xu = Psm_core.Xu
module Generator = Psm_core.Generator
module Merge = Psm_core.Merge
module Simplify = Psm_core.Simplify
module Join = Psm_core.Join
module Optimize = Psm_core.Optimize
module Sim_single = Psm_core.Sim_single
module Vocabulary = Psm_mining.Vocabulary
module Prop_trace = Psm_mining.Prop_trace
module Table = Prop_trace.Table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A tiny synthetic world: one 4-bit signal [s]; the proposition is simply
   its value (atoms s=0..s=15 would be the vocabulary, but we register
   rows on demand).  Helper to turn a prop-id sequence into a table,
   functional trace, proposition trace and power trace. *)
let world values powers =
  let iface = Interface.create [ Signal.input "s" 4; Signal.output "o" 1 ] in
  let atoms = List.init 16 (fun v -> Psm_mining.Atomic.eq_const 0 (Bits.of_int ~width:4 v)) in
  let table = Table.create (Vocabulary.create iface atoms) in
  let samples =
    Array.of_list
      (List.map (fun v -> [| Bits.of_int ~width:4 v; Bits.of_bool false |]) values)
  in
  let trace = FT.of_samples iface samples in
  let gamma = Prop_trace.of_functional table trace in
  let delta = PT.of_array (Array.of_list powers) in
  (table, trace, gamma, delta)

(* ---------- assertions ---------- *)

let test_assertion_smart_constructors () =
  let u = Assertion.Until (0, 1) and x = Assertion.Next (1, 2) in
  check_bool "seq flattens" true
    (Assertion.equal
       (Assertion.seq [ Assertion.seq [ u; x ]; u ])
       (Assertion.Seq [ u; x; u ]));
  check_bool "singleton seq is identity" true (Assertion.equal u (Assertion.seq [ u ]));
  check_bool "alt dedups" true (Assertion.equal u (Assertion.alt [ u; u ]));
  check_bool "alt flattens" true
    (Assertion.equal
       (Assertion.alt [ Assertion.alt [ u; x ]; u ])
       (Assertion.Alt [ u; x ]))

let test_assertion_entry_exit () =
  let u = Assertion.Until (3, 4) and x = Assertion.Next (4, 5) in
  Alcotest.(check (list int)) "until entry" [ 3 ] (Assertion.entry_props u);
  Alcotest.(check (list int)) "until exit" [ 4 ] (Assertion.exit_props u);
  let s = Assertion.seq [ u; x ] in
  Alcotest.(check (list int)) "seq entry" [ 3 ] (Assertion.entry_props s);
  Alcotest.(check (list int)) "seq exit" [ 5 ] (Assertion.exit_props s);
  let a = Assertion.alt [ u; Assertion.Until (7, 8) ] in
  Alcotest.(check (list int)) "alt entries" [ 3; 7 ] (Assertion.entry_props a);
  Alcotest.(check (list int)) "alt exits" [ 4; 8 ] (Assertion.exit_props a)

let test_assertion_props_and_pp () =
  let s = Assertion.seq [ Assertion.Until (1, 2); Assertion.Next (2, 3) ] in
  Alcotest.(check (list int)) "props" [ 1; 2; 3 ] (Assertion.props s);
  Alcotest.(check string) "pp" "{p1 U p2; p2 X p3}" (Format.asprintf "%a" Assertion.pp s)

let test_assertion_compare_total () =
  let all =
    [ Assertion.Until (0, 1); Assertion.Next (0, 1);
      Assertion.Seq [ Assertion.Until (0, 1); Assertion.Next (1, 2) ];
      Assertion.Alt [ Assertion.Until (0, 1); Assertion.Until (2, 3) ] ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_bool "antisymmetry" true
            (Assertion.compare a b = -Assertion.compare b a))
        all)
    all

(* ---------- power attributes ---------- *)

let test_attr_of_interval () =
  let delta = PT.of_array [| 1.; 2.; 3.; 4.; 5. |] in
  let a = Power_attr.of_interval delta ~trace:0 ~start:1 ~stop:3 in
  Alcotest.(check (float 1e-9)) "mu" 3. a.Power_attr.mu;
  Alcotest.(check (float 1e-9)) "sigma" 1. a.Power_attr.sigma;
  check_int "n" 3 a.Power_attr.n

let test_attr_merge_exact () =
  (* merge must equal a literal rescan of the union of intervals. *)
  let delta = PT.of_array (Array.init 50 (fun i -> float_of_int ((i * 7) mod 13))) in
  let a = Power_attr.of_interval delta ~trace:0 ~start:0 ~stop:9 in
  let b = Power_attr.of_interval delta ~trace:0 ~start:25 ~stop:44 in
  let merged = Power_attr.merge a b in
  let rescanned = Power_attr.recompute [| delta |] merged in
  Alcotest.(check (float 1e-9)) "mu" rescanned.Power_attr.mu merged.Power_attr.mu;
  Alcotest.(check (float 1e-9)) "sigma" rescanned.Power_attr.sigma merged.Power_attr.sigma;
  check_int "n" rescanned.Power_attr.n merged.Power_attr.n

let test_relative_sigma () =
  let a = { Power_attr.mu = 10.; sigma = 2.; n = 5; intervals = [] } in
  Alcotest.(check (float 1e-9)) "ratio" 0.2 (Power_attr.relative_sigma a)

(* ---------- PSM structure ---------- *)

(* A table with propositions 0..5 interned, for hand-built PSMs. *)
let empty_world () =
  let table, _, _, _ = world [ 0; 1; 2; 3; 4; 5 ] [ 1.; 1.; 1.; 1.; 1.; 1. ] in
  table

let attr mu n : Power_attr.t = { mu; sigma = 0.; n; intervals = [] }

let test_psm_construction () =
  let psm = Psm.empty (empty_world ()) in
  let psm, s0 = Psm.add_state psm (Assertion.Until (0, 1)) (attr 1. 5) in
  let psm, s1 = Psm.add_state psm (Assertion.Until (1, 0)) (attr 2. 5) in
  let psm = Psm.add_transition psm ~src:s0 ~guard:1 ~dst:s1 in
  let psm = Psm.add_transition psm ~src:s0 ~guard:1 ~dst:s1 in
  let psm = Psm.add_initial psm s0 in
  check_int "states" 2 (Psm.state_count psm);
  check_int "transitions deduped" 1 (Psm.transition_count psm);
  check_int "successors" 1 (List.length (Psm.successors psm s0));
  Alcotest.(check (list int)) "initial" [ s0 ] (Psm.initial psm);
  check_int "machines" 1 (Psm.machine_count psm)

let test_psm_union () =
  let table = empty_world () in
  let one () =
    let psm = Psm.empty table in
    let psm, s = Psm.add_state psm (Assertion.Until (0, 1)) (attr 1. 3) in
    Psm.add_initial psm s
  in
  let u = Psm.union [ one (); one (); one () ] in
  check_int "states" 3 (Psm.state_count u);
  check_int "machines" 3 (Psm.machine_count u);
  check_int "initials" 3 (List.length (Psm.initial u))

let test_psm_output_eval () =
  Alcotest.(check (float 1e-9)) "const" 5. (Psm.eval_output (Psm.Const 5.) ~hamming:100.);
  Alcotest.(check (float 1e-9)) "affine" 17.
    (Psm.eval_output (Psm.Affine { slope = 1.5; intercept = 2. }) ~hamming:10.)

(* ---------- the XU automaton (paper Fig. 5) ---------- *)

let test_xu_fig5_walkthrough () =
  (* Γ = a a a b b b c d: the paper's example sequence. *)
  let _, _, gamma, _ = world [ 0; 0; 0; 1; 1; 1; 2; 3 ] (List.init 8 (fun _ -> 1.)) in
  let xu = Xu.initialize gamma in
  (match Xu.get_assertion xu with
  | Some (Xu.Until (p, q), 0, 2) -> check_int "a U b" 1 (q - p)
  | other -> Alcotest.failf "first pattern wrong: %s" (match other with None -> "none" | Some _ -> "mismatch"));
  (match Xu.get_assertion xu with
  | Some (Xu.Until (1, 2), 3, 5) -> ()
  | _ -> Alcotest.fail "second pattern wrong");
  (match Xu.get_assertion xu with
  | Some (Xu.Next (2, 3), 6, 6) -> ()
  | _ -> Alcotest.fail "third pattern wrong");
  Alcotest.(check bool) "exhausted" true (Xu.get_assertion xu = None);
  Alcotest.(check (option int)) "trailing instant" (Some 7) (Xu.trailing_stop xu)

let test_xu_pure_next_sequence () =
  let _, _, gamma, _ = world [ 0; 1; 2; 3; 4 ] (List.init 5 (fun _ -> 1.)) in
  let xu = Xu.initialize gamma in
  let rec collect acc =
    match Xu.get_assertion xu with Some t -> collect (t :: acc) | None -> List.rev acc
  in
  let triplets = collect [] in
  check_int "4 next patterns" 4 (List.length triplets);
  List.iteri
    (fun i (pattern, start, stop) ->
      check_int "start" i start;
      check_int "stop" i stop;
      match pattern with
      | Xu.Next (p, q) ->
          check_int "lhs" i p;
          check_int "rhs" (i + 1) q
      | Xu.Until _ -> Alcotest.fail "expected next")
    triplets

let test_xu_single_run () =
  let _, _, gamma, _ = world [ 5; 5; 5; 5 ] [ 1.; 1.; 1.; 1. ] in
  let xu = Xu.initialize gamma in
  Alcotest.(check bool) "no assertion" true (Xu.get_assertion xu = None);
  Alcotest.(check (option int)) "everything trailing" (Some 3) (Xu.trailing_stop xu)

(* ---------- PSMGenerator ---------- *)

let test_generator_fig5_chain () =
  let _, _, gamma, delta =
    world [ 0; 0; 0; 1; 1; 1; 2; 3 ]
      [ 3.349; 3.339; 3.353; 1.902; 1.906; 1.944; 3.350; 3.343 ]
  in
  let table = Prop_trace.table gamma in
  let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  check_int "3 states" 3 (Psm.state_count psm);
  check_int "2 transitions" 2 (Psm.transition_count psm);
  check_int "1 machine" 1 (Psm.machine_count psm);
  let states = Psm.states psm in
  let s0 = List.nth states 0 and s1 = List.nth states 1 and s2 = List.nth states 2 in
  check_bool "s0 assertion" true (Assertion.equal s0.Psm.assertion (Assertion.Until (0, 1)));
  check_bool "s1 assertion" true (Assertion.equal s1.Psm.assertion (Assertion.Until (1, 2)));
  check_bool "s2 assertion" true (Assertion.equal s2.Psm.assertion (Assertion.Next (2, 3)));
  (* Power attributes match the paper's intervals; the final state covers
     [6,7] (n = 2). *)
  Alcotest.(check (float 1e-6)) "mu0" 3.347 s0.Psm.attr.Power_attr.mu;
  Alcotest.(check (float 1e-6)) "mu1" 1.917333333 s1.Psm.attr.Power_attr.mu;
  check_int "n2 covers trailing instant" 2 s2.Psm.attr.Power_attr.n;
  (* Transition guards are the entry propositions (Fig. 5: p_b then p_c). *)
  (match Psm.transitions psm with
  | [ t1; t2 ] ->
      check_int "guard 1" 1 t1.Psm.guard;
      check_int "guard 2" 2 t2.Psm.guard
  | _ -> Alcotest.fail "expected two transitions");
  (* Initial state recorded. *)
  Alcotest.(check (list int)) "initial" [ s0.Psm.id ] (Psm.initial psm)

let test_generator_long_trailing_run_gets_own_state () =
  (* Γ = a a a b b b b b: the trailing b-run is 5 instants; it must become
     its own absorbing Until(b,b) state, not pollute the a-state. *)
  let _, _, gamma, delta =
    world [ 0; 0; 0; 1; 1; 1; 1; 1 ] [ 1.; 1.; 1.; 9.; 9.; 9.; 9.; 9. ]
  in
  let table = Prop_trace.table gamma in
  let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  check_int "2 states" 2 (Psm.state_count psm);
  let states = Psm.states psm in
  let s0 = List.nth states 0 and s1 = List.nth states 1 in
  Alcotest.(check (float 1e-9)) "a-state clean" 1. s0.Psm.attr.Power_attr.mu;
  Alcotest.(check (float 1e-9)) "b-state clean" 9. s1.Psm.attr.Power_attr.mu;
  check_bool "absorbing assertion" true
    (Assertion.equal s1.Psm.assertion (Assertion.Until (1, 1)))

let test_generator_validates () =
  let _, _, gamma, _ = world [ 0; 1 ] [ 1.; 1. ] in
  let table = Prop_trace.table gamma in
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (Generator.generate (Psm.empty table) ~trace:0 gamma (PT.of_array [| 1. |]));
       false
     with Invalid_argument _ -> true)

let test_generator_every_instant_attributed () =
  (* The union of state intervals tiles [0, n-1] exactly. *)
  let values = [ 0; 0; 1; 1; 1; 2; 3; 3; 3; 3; 0; 0; 4 ] in
  let powers = List.map (fun v -> float_of_int (v + 1)) values in
  let _, _, gamma, delta = world values powers in
  let table = Prop_trace.table gamma in
  let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  let intervals =
    List.concat_map (fun (s : Psm.state) -> s.Psm.attr.Power_attr.intervals) (Psm.states psm)
    |> List.sort (fun a b -> Int.compare a.Power_attr.start b.Power_attr.start)
  in
  let covered =
    List.fold_left
      (fun acc (iv : Power_attr.interval) ->
        match acc with
        | Some expected when iv.Power_attr.start = expected -> Some (iv.Power_attr.stop + 1)
        | _ -> None)
      (Some 0) intervals
  in
  Alcotest.(check (option int)) "tiles trace" (Some (List.length values)) covered

(* ---------- mergeability ---------- *)

let test_merge_case1 () =
  let a = attr 10. 1 and b = attr 10.5 1 and c = attr 20. 1 in
  check_bool "case" true (Merge.case_of a b = Merge.Case1_next_next);
  check_bool "close next states merge" true (Merge.mergeable Merge.default a b);
  check_bool "distant next states do not" false (Merge.mergeable Merge.default a c)

let test_merge_case2 () =
  let a = { Power_attr.mu = 10.; sigma = 1.; n = 200; intervals = [] } in
  let b = { Power_attr.mu = 10.05; sigma = 1.1; n = 180; intervals = [] } in
  let far = { Power_attr.mu = 14.; sigma = 1.; n = 200; intervals = [] } in
  check_bool "case" true (Merge.case_of a b = Merge.Case2_until_until);
  check_bool "same distribution merges" true (Merge.mergeable Merge.default a b);
  check_bool "distinct does not" false (Merge.mergeable Merge.default a far)

let test_merge_case3 () =
  let pop = { Power_attr.mu = 10.; sigma = 1.; n = 100; intervals = [] } in
  let near = attr 10.8 1 and far = attr 25. 1 in
  check_bool "case" true (Merge.case_of pop near = Merge.Case3_until_next);
  check_bool "plausible sample merges" true (Merge.mergeable Merge.default pop near);
  check_bool "implausible does not" false (Merge.mergeable Merge.default pop far);
  (* symmetric argument order *)
  check_bool "symmetric" true (Merge.mergeable Merge.default near pop)

let test_merge_practical_equivalence () =
  (* Huge n makes Welch reject a 2% difference; practical equivalence
     overrides, the paper-letter configuration does not. *)
  let a = { Power_attr.mu = 100.; sigma = 1.; n = 100000; intervals = [] } in
  let b = { Power_attr.mu = 102.; sigma = 1.; n = 100000; intervals = [] } in
  check_bool "default merges" true (Merge.mergeable Merge.default a b);
  check_bool "pure t-test rejects" false
    (Merge.mergeable { Merge.default with Merge.practical_equivalence = false } a b)

(* ---------- simplify (paper Fig. 6a) ---------- *)

let chain_psm table specs =
  (* specs: (assertion, mu, sigma, n) list; builds a chain with transitions
     guarded by each next state's entry proposition. *)
  let psm = Psm.empty table in
  let psm, ids =
    List.fold_left
      (fun (psm, ids) (assertion, mu, sigma, n) ->
        let psm, id =
          Psm.add_state psm assertion { Power_attr.mu; sigma; n; intervals = [] }
        in
        (psm, id :: ids))
      (psm, []) specs
  in
  let ids = List.rev ids in
  let psm =
    List.fold_left2
      (fun psm (src, dst) (assertion, _, _, _) ->
        let entry = List.hd (Assertion.entry_props assertion) in
        Psm.add_transition psm ~src ~guard:entry ~dst)
      psm
      (List.combine (List.filteri (fun i _ -> i < List.length ids - 1) ids) (List.tl ids))
      (List.tl specs)
  in
  (Psm.add_initial psm (List.hd ids), ids)

let test_simplify_merges_adjacent () =
  let table = empty_world () in
  let psm, _ =
    chain_psm table
      [ (Assertion.Until (0, 1), 5., 0.1, 40);
        (Assertion.Until (1, 2), 5.02, 0.1, 40);
        (Assertion.Until (2, 3), 50., 0.1, 40) ]
  in
  let simplified = Simplify.simplify psm in
  check_int "merged to 2" 2 (Psm.state_count simplified);
  check_int "one transition" 1 (Psm.transition_count simplified);
  (* The merged state carries the sequential assertion {p0 U p1; p1 U p2}. *)
  let merged =
    List.find
      (fun (s : Psm.state) ->
        match s.Psm.assertion with Assertion.Seq _ -> true | _ -> false)
      (Psm.states simplified)
  in
  check_bool "cascade assertion" true
    (Assertion.equal merged.Psm.assertion
       (Assertion.Seq [ Assertion.Until (0, 1); Assertion.Until (1, 2) ]));
  check_int "n accumulated" 80 merged.Psm.attr.Power_attr.n

let test_simplify_preserves_total_n () =
  let table = empty_world () in
  let psm, _ =
    chain_psm table
      [ (Assertion.Until (0, 1), 5., 0.1, 10);
        (Assertion.Until (1, 2), 5., 0.1, 20);
        (Assertion.Until (2, 3), 5., 0.1, 30);
        (Assertion.Until (3, 4), 90., 0.1, 40) ]
  in
  let simplified = Simplify.simplify psm in
  let total p =
    List.fold_left (fun acc (s : Psm.state) -> acc + s.Psm.attr.Power_attr.n) 0 (Psm.states p)
  in
  check_int "sum n preserved" (total psm) (total simplified);
  check_int "3 mergeable collapse" 2 (Psm.state_count simplified)

let test_simplify_keeps_distinct () =
  let table = empty_world () in
  let psm, _ =
    chain_psm table
      [ (Assertion.Until (0, 1), 1., 0.01, 40);
        (Assertion.Until (1, 2), 50., 0.01, 40);
        (Assertion.Until (2, 3), 1., 0.01, 40) ]
  in
  let simplified = Simplify.simplify psm in
  check_int "nothing merged" 3 (Psm.state_count simplified)

let test_simplify_traced_mapping () =
  let table = empty_world () in
  let psm, ids =
    chain_psm table
      [ (Assertion.Until (0, 1), 5., 0.1, 40);
        (Assertion.Until (1, 2), 5., 0.1, 40);
        (Assertion.Until (2, 3), 50., 0.1, 40) ]
  in
  let simplified, resolve = Simplify.simplify_traced psm in
  let merged_ids = List.map (fun (s : Psm.state) -> s.Psm.id) (Psm.states simplified) in
  (match ids with
  | [ a; b; c ] ->
      check_bool "a and b map together" true (resolve a = resolve b);
      check_bool "c maps apart" true (resolve c <> resolve a);
      check_int "c keeps its own samples" 40
        (Psm.state simplified (resolve c)).Psm.attr.Power_attr.n;
      check_int "a+b samples pooled" 80
        (Psm.state simplified (resolve a)).Psm.attr.Power_attr.n;
      check_bool "mapped ids exist" true
        (List.mem (resolve a) merged_ids && List.mem (resolve c) merged_ids)
  | _ -> Alcotest.fail "expected 3 ids")

(* ---------- join (paper Fig. 6b) ---------- *)

let test_join_merges_across_machines () =
  let table = empty_world () in
  let mk mu =
    let psm, _ =
      chain_psm table
        [ (Assertion.Until (0, 1), mu, 0.1, 40); (Assertion.Until (1, 0), 99., 0.1, 40) ]
    in
    psm
  in
  let union = Psm.union [ mk 5.; mk 5.01 ] in
  check_int "4 states before" 4 (Psm.state_count union);
  let joined = Join.join union in
  check_int "2 states after" 2 (Psm.state_count joined);
  check_int "1 machine after" 1 (Psm.machine_count joined);
  (* π multiplicity: both initial entries now name the merged state. *)
  check_int "initial multiplicity" 2 (List.length (Psm.initial joined));
  (* The merged low-power state has two components (one per member). *)
  let low =
    List.find (fun (s : Psm.state) -> s.Psm.attr.Power_attr.mu < 50.) (Psm.states joined)
  in
  check_int "components" 2 (List.length low.Psm.components)

let test_join_alternative_assertion () =
  let table = empty_world () in
  let mk assertion =
    let psm = Psm.empty table in
    let psm, id = Psm.add_state psm assertion (attr 5. 40) in
    Psm.add_initial psm id
  in
  let union = Psm.union [ mk (Assertion.Until (0, 1)); mk (Assertion.Until (2, 3)) ] in
  let joined = Join.join union in
  check_int "merged" 1 (Psm.state_count joined);
  let s = List.hd (Psm.states joined) in
  check_bool "alternative" true
    (Assertion.equal s.Psm.assertion
       (Assertion.Alt [ Assertion.Until (0, 1); Assertion.Until (2, 3) ]))

let test_join_never_increases_states () =
  let table = empty_world () in
  let psm, _ =
    chain_psm table
      [ (Assertion.Until (0, 1), 1., 0.1, 40); (Assertion.Until (1, 2), 30., 0.1, 40);
        (Assertion.Until (2, 3), 60., 0.1, 40) ]
  in
  let joined = Join.join psm in
  check_bool "monotone" true (Psm.state_count joined <= Psm.state_count psm)

let test_join_self_loop_from_internal_edge () =
  (* Two chained states merged by join (not adjacent-mergeable via
     simplify's uniqueness rules is bypassed by calling join directly):
     the edge between them becomes a self-loop. *)
  let table = empty_world () in
  let psm, _ =
    chain_psm table
      [ (Assertion.Until (0, 1), 5., 0.1, 40); (Assertion.Until (1, 0), 5.01, 0.1, 40) ]
  in
  let joined = Join.join psm in
  check_int "one state" 1 (Psm.state_count joined);
  (match Psm.transitions joined with
  | [ t ] -> check_bool "self loop" true (t.Psm.src = t.Psm.dst)
  | other -> Alcotest.failf "expected one self-loop, got %d" (List.length other))

(* ---------- optimize ---------- *)

let make_regression_world () =
  (* One signal toggling a variable number of bits each cycle; power =
     4 + 2 * hamming + tiny noise: a perfect regression target. *)
  let iface = Interface.create [ Signal.input "d" 8; Signal.output "o" 1 ] in
  let values =
    Array.init 200 (fun i -> [ 0x00; 0x01; 0x07; 0x0F; 0x55; 0xFF ] |> fun l ->
      List.nth l (i mod 6))
  in
  let samples =
    Array.map (fun v -> [| Bits.of_int ~width:8 v; Bits.of_bool false |]) values
  in
  let trace = FT.of_samples iface samples in
  let hd = FT.input_hamming_series trace in
  let powers = Array.mapi (fun i h -> 4. +. (2. *. h) +. (0.001 *. float_of_int (i mod 3))) hd in
  (trace, PT.of_array powers)

let test_optimize_upgrades_correlated_state () =
  let trace, power = make_regression_world () in
  let iface = FT.interface trace in
  let table = Table.create (Vocabulary.create iface []) in
  (* With an empty vocabulary everything is one proposition: a single
     self-until state covering the whole trace. *)
  let gamma = Prop_trace.of_functional table trace in
  let psm = Generator.generate (Psm.empty table) ~trace:0 gamma power in
  check_int "one state" 1 (Psm.state_count psm);
  let optimized, reports =
    Optimize.optimize ~traces:[| trace |] ~powers:[| power |] psm
  in
  (match reports with
  | [ r ] ->
      check_bool "upgraded" true r.Optimize.upgraded;
      check_bool "strong correlation" true (r.Optimize.correlation > 0.95)
  | _ -> Alcotest.fail "expected one report");
  let s = List.hd (Psm.states optimized) in
  (match s.Psm.output with
  | Psm.Affine { slope; intercept } ->
      Alcotest.(check (float 0.05)) "slope" 2. slope;
      Alcotest.(check (float 0.1)) "intercept" 4. intercept
  | Psm.Const _ -> Alcotest.fail "expected affine output")

let test_optimize_skips_uncorrelated () =
  (* High-variance power uncorrelated with input switching: candidate but
     not upgraded. *)
  let iface = Interface.create [ Signal.input "d" 8; Signal.output "o" 1 ] in
  let samples = Array.make 100 [| Bits.of_int ~width:8 0xAA; Bits.of_bool false |] in
  let trace = FT.of_samples iface samples in
  let powers = Array.init 100 (fun i -> 10. +. float_of_int ((i * 31) mod 17)) in
  let power = PT.of_array powers in
  let table = Table.create (Vocabulary.create iface []) in
  let gamma = Prop_trace.of_functional table trace in
  let psm = Generator.generate (Psm.empty table) ~trace:0 gamma power in
  let optimized, reports = Optimize.optimize ~traces:[| trace |] ~powers:[| power |] psm in
  (match reports with
  | [ r ] -> check_bool "not upgraded" false r.Optimize.upgraded
  | _ -> Alcotest.fail "expected one report");
  let s = List.hd (Psm.states optimized) in
  check_bool "still constant" true (match s.Psm.output with Psm.Const _ -> true | _ -> false)

(* ---------- single-chain simulation (Sec. III-C) ---------- *)

let test_sim_single_replays_training () =
  let values = [ 0; 0; 0; 1; 1; 1; 2; 3; 3; 3 ] in
  let powers = [ 5.; 5.; 5.; 2.; 2.; 2.; 9.; 4.; 4.; 4. ] in
  let _, trace, gamma, delta = world values powers in
  let table = Prop_trace.table gamma in
  let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  let result = Sim_single.simulate psm trace in
  Alcotest.(check (list int)) "no desync" [] result.Sim_single.desyncs;
  Alcotest.(check (float 1e-9)) "fully synchronized" 1. result.Sim_single.synchronized_fraction;
  (* The estimate replays each state's mean. *)
  Alcotest.(check (float 1e-9)) "first state mean" 5. result.Sim_single.estimate.(0);
  Alcotest.(check (float 1e-9)) "second state mean" 2. result.Sim_single.estimate.(4)

let test_sim_single_desyncs_on_unknown () =
  (* Train on a-a-a-b..., test on a trace that jumps to an unseen prop:
     the PSM must lose sync and stay in its state (Sec. III-C). *)
  let values = [ 0; 0; 0; 1; 1; 1 ] in
  let powers = [ 5.; 5.; 5.; 2.; 2.; 2. ] in
  let _, _, gamma, delta = world values powers in
  let table = Prop_trace.table gamma in
  let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  let iface = Vocabulary.interface (Table.vocabulary table) in
  let test_trace =
    FT.of_samples iface
      (Array.of_list
         (List.map
            (fun v -> [| Bits.of_int ~width:4 v; Bits.of_bool false |])
            [ 0; 0; 7; 7; 1; 1 ]))
  in
  let result = Sim_single.simulate psm test_trace in
  check_bool "desynced" true (List.length result.Sim_single.desyncs > 0);
  check_bool "records instants" true (List.mem 2 result.Sim_single.desyncs)

let test_sim_single_rejects_composites () =
  let table = empty_world () in
  let psm = Psm.empty table in
  let psm, id =
    Psm.add_state psm
      (Assertion.Seq [ Assertion.Until (0, 1); Assertion.Until (1, 2) ])
      (attr 1. 10)
  in
  let psm = Psm.add_initial psm id in
  let iface = Vocabulary.interface (Table.vocabulary table) in
  let trace = FT.of_samples iface [| [| Bits.zero 4; Bits.zero 1 |] |] in
  check_bool "raises" true
    (try
       ignore (Sim_single.simulate psm trace);
       false
     with Invalid_argument _ -> true)

(* ---------- dot export ---------- *)

let test_dot_renders () =
  let table = empty_world () in
  let psm, _ =
    chain_psm table
      [ (Assertion.Until (0, 1), 1e-6, 1e-8, 40); (Assertion.Until (1, 2), 2e-6, 1e-8, 40) ]
  in
  let dot = Psm_core.Dot.to_string ~name:"test" psm in
  check_bool "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "has edge" true (contains "->" dot);
  check_bool "labels guards" true (contains "label" dot)

let test_dot_escapes_hostile_names () =
  (* Quotes, backslashes, newlines, tabs and CRs in signal names (and the
     graph name) must never leak into the DOT output unescaped. *)
  let iface = Interface.create [ Signal.input "a\"b\\c\nd\te\rf" 1 ] in
  let atoms = [ Psm_mining.Atomic.eq_const 0 (Bits.of_bool true) ] in
  let table = Table.create (Vocabulary.create iface atoms) in
  let p_hi = Table.intern_row table [| true |] in
  let p_lo = Table.intern_row table [| false |] in
  let psm = Psm.empty table in
  let psm, s0 =
    Psm.add_state psm (Assertion.Until (p_hi, p_lo))
      { Power_attr.mu = 1e-6; sigma = 0.; n = 4; intervals = [] }
  in
  let psm, s1 =
    Psm.add_state psm (Assertion.Until (p_lo, p_hi))
      { Power_attr.mu = 2e-6; sigma = 0.; n = 4; intervals = [] }
  in
  let psm = Psm.add_transition psm ~src:s0 ~guard:p_lo ~dst:s1 in
  let psm = Psm.add_initial psm s0 in
  let dot = Psm_core.Dot.to_string ~name:"bad\"na\\me\r\nx\ty" psm in
  String.iter
    (fun c ->
      check_bool "no raw control characters besides newline" true
        (c = '\n' || Char.code c >= 0x20))
    dot;
  (* A raw newline or unescaped quote inside a label would leave a line
     with an odd number of quote characters. *)
  List.iter
    (fun line ->
      let quotes = ref 0 in
      String.iteri
        (fun i c ->
          if c = '"' then begin
            let backslashes = ref 0 in
            let j = ref (i - 1) in
            while !j >= 0 && line.[!j] = '\\' do
              incr backslashes;
              decr j
            done;
            if !backslashes mod 2 = 0 then incr quotes
          end)
        line;
      check_bool ("balanced quotes in: " ^ line) true (!quotes mod 2 = 0))
    (String.split_on_char '\n' dot);
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "quote escaped" true (contains "\\\"" dot);
  check_bool "backslash escaped" true (contains "\\\\" dot)

(* ---------- properties ---------- *)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:60 ~name arb f)

let arb_prop_sequence =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 2 80)
        (map (fun v -> v mod 6) (int_bound 5)))

(* Random assertion trees exercising the smart-constructor invariants:
   leaves over a small prop universe, Seq/Alt built through the raw
   constructors so [seq]/[alt] have real flattening work to do. *)
let gen_assertion =
  QCheck.Gen.(
    let leaf =
      map2
        (fun next (p, q) ->
          if next then Assertion.Next (p, q) else Assertion.Until (p, q))
        bool
        (pair (int_bound 4) (int_bound 4))
    in
    fix
      (fun self n ->
        if n = 0 then leaf
        else
          frequency
            [ (2, leaf);
              (1, map Assertion.seq (list_size (int_range 1 3) (self (n - 1))));
              (1, map Assertion.alt (list_size (int_range 1 3) (self (n - 1)))) ])
      2)

let arb_assertion_list =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 4) gen_assertion)
    ~print:(fun xs ->
      String.concat "; " (List.map (Assertion.to_string (Printf.sprintf "p%d")) xs))

let rec no_nested_seq = function
  | Assertion.Seq xs ->
      List.for_all (function Assertion.Seq _ -> false | x -> no_nested_seq x) xs
  | Assertion.Alt xs -> List.for_all no_nested_seq xs
  | Assertion.Until _ | Assertion.Next _ -> true

let rec no_nested_alt = function
  | Assertion.Alt xs ->
      List.for_all (function Assertion.Alt _ -> false | x -> no_nested_alt x) xs
  | Assertion.Seq xs -> List.for_all no_nested_alt xs
  | Assertion.Until _ | Assertion.Next _ -> true

(* Random machines over [empty_world]'s six guards plus the corrupt
   guard -1 (which the determinism rule reports): [n] states, each with
   one interval at a random start (so a canonical renumbering permutes
   ids), and
   edge shapes that force self-loops and several guards on one
   (src, dst) pair. Sources stop short of the last state, which is
   therefore always a sink. *)
type edge_shape = Edge of int * int * int | Self of int * int | Fan of int * int * int * int

let gen_machine =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    let src = int_bound (n - 2) and dst = int_bound (n - 1) and guard = int_range (-1) 5 in
    let shape =
      frequency
        [ (3, map3 (fun s g d -> Edge (s, g, d)) src guard dst);
          (1, map2 (fun s g -> Self (s, g)) src guard);
          (1, map2 (fun (s, d) (g1, g2) -> Fan (s, d, g1, g2)) (pair src dst) (pair guard guard)) ]
    in
    pair (list_repeat n (int_bound 50)) (list_size (int_bound 30) shape))

let build_machine table (starts, shapes) =
  let psm =
    List.fold_left
      (fun psm start ->
        let iv = { Power_attr.trace = 0; start; stop = start } in
        fst (Psm.add_state psm (Assertion.Until (0, 1)) { (attr 1. 1) with intervals = [ iv ] }))
      (Psm.empty table) starts
  in
  List.fold_left
    (fun psm -> function
      | Edge (src, guard, dst) -> Psm.add_transition psm ~src ~guard ~dst
      | Self (src, guard) -> Psm.add_transition psm ~src ~guard ~dst:src
      | Fan (src, dst, g1, g2) ->
          Psm.add_transition (Psm.add_transition psm ~src ~guard:g1 ~dst) ~src ~guard:g2 ~dst)
    psm shapes

let arb_machine_pair = QCheck.make QCheck.Gen.(pair gen_machine gen_machine)

(* [Psm.successors] is a range read of the ordered transition set; the
   reference is the whole-list filter it replaced. *)
let successors_match_filter psm =
  let ids = List.map (fun (s : Psm.state) -> s.Psm.id) (Psm.states psm) in
  let past_last = List.fold_left max (-1) ids + 1 in
  List.for_all
    (fun id ->
      Psm.successors psm id
      = List.filter (fun (tr : Psm.transition) -> tr.Psm.src = id) (Psm.transitions psm))
    (ids @ [ past_last ])

let test_assertion_nested_entry_exit () =
  (* Seq of Alts: entry comes from every branch of the FIRST element,
     exit from every branch of the LAST. *)
  let a =
    Assertion.seq
      [ Assertion.alt [ Assertion.Until (0, 1); Assertion.Next (2, 3) ];
        Assertion.Until (1, 2);
        Assertion.alt [ Assertion.Until (4, 5); Assertion.Next (6, 7) ] ]
  in
  Alcotest.(check (list int)) "entries from the first Alt" [ 0; 2 ]
    (Assertion.entry_props a);
  Alcotest.(check (list int)) "exits from the last Alt" [ 5; 7 ]
    (Assertion.exit_props a);
  (* An Alt of Seqs: union over branches at both ends. *)
  let b =
    Assertion.alt
      [ Assertion.seq [ Assertion.Next (0, 1); Assertion.Until (1, 2) ];
        Assertion.Until (3, 4) ]
  in
  Alcotest.(check (list int)) "alt entries union" [ 0; 3 ] (Assertion.entry_props b);
  Alcotest.(check (list int)) "alt exits union" [ 2; 4 ] (Assertion.exit_props b);
  List.iter
    (fun build ->
      Alcotest.check_raises "empty list rejected"
        (Invalid_argument
           (match build with
           | `Seq -> "Assertion.seq: empty sequence"
           | `Alt -> "Assertion.alt: empty alternative"))
        (fun () ->
          ignore (match build with `Seq -> Assertion.seq [] | `Alt -> Assertion.alt [])))
    [ `Seq; `Alt ]

let properties =
  [ prop "seq flattens and passes singletons through" arb_assertion_list
      (fun parts ->
        let built = Assertion.seq parts in
        no_nested_seq built
        &&
        match parts with
        | [ single ] -> Assertion.equal built single
        | _ -> (
            (* Flattening preserves the leaf-level sequential order. *)
            let rec seq_leaves a =
              match a with Assertion.Seq xs -> List.concat_map seq_leaves xs | x -> [ x ]
            in
            List.concat_map seq_leaves parts = seq_leaves built
            &&
            match built with
            | Assertion.Seq xs -> List.length xs >= 2
            | _ -> List.length (List.concat_map seq_leaves parts) = 1));
    prop "alt flattens, dedups and sorts" arb_assertion_list (fun parts ->
        let built = Assertion.alt parts in
        no_nested_alt built
        && Assertion.equal built (Assertion.alt (parts @ parts))
        && (match built with
           | Assertion.Alt xs ->
               List.sort_uniq Assertion.compare xs = xs && List.length xs >= 2
           | _ -> true)
        &&
        match parts with
        | [ single ] -> Assertion.equal built single
        | _ -> true);
    prop "generator intervals tile any trace" arb_prop_sequence (fun values ->
        QCheck.assume (values <> []);
        let powers = List.map (fun v -> float_of_int v +. 1.) values in
        let _, _, gamma, delta = world values powers in
        let table = Prop_trace.table gamma in
        let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
        let intervals =
          List.concat_map
            (fun (s : Psm.state) -> s.Psm.attr.Power_attr.intervals)
            (Psm.states psm)
          |> List.sort (fun a b -> Int.compare a.Power_attr.start b.Power_attr.start)
        in
        let covered =
          List.fold_left
            (fun acc (iv : Power_attr.interval) ->
              match acc with
              | Some e when iv.Power_attr.start = e -> Some (iv.Power_attr.stop + 1)
              | _ -> None)
            (Some 0) intervals
        in
        covered = Some (List.length values));
    prop "generator chains replay without desync" arb_prop_sequence (fun values ->
        QCheck.assume (List.length values >= 2);
        let powers = List.map (fun v -> float_of_int v +. 1.) values in
        let _, trace, gamma, delta = world values powers in
        let table = Prop_trace.table gamma in
        let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
        let result = Sim_single.simulate psm trace in
        result.Sim_single.desyncs = []);
    prop "simplify preserves total n" arb_prop_sequence (fun values ->
        QCheck.assume (values <> []);
        let powers = List.map (fun v -> float_of_int (v / 3) +. 1.) values in
        let _, _, gamma, delta = world values powers in
        let table = Prop_trace.table gamma in
        let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
        let simplified = Simplify.simplify psm in
        let total p =
          List.fold_left
            (fun acc (s : Psm.state) -> acc + s.Psm.attr.Power_attr.n)
            0 (Psm.states p)
        in
        total psm = total simplified);
    prop "join monotone on state count" arb_prop_sequence (fun values ->
        QCheck.assume (values <> []);
        let powers = List.map (fun v -> float_of_int (v / 2) +. 1.) values in
        let _, _, gamma, delta = world values powers in
        let table = Prop_trace.table gamma in
        let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
        let simplified = Simplify.simplify psm in
        let joined = Join.join simplified in
        Psm.state_count joined <= Psm.state_count simplified
        && Psm.machine_count joined >= 1);
    prop "successors equal the transition filter" arb_machine_pair (fun (a, b) ->
        let table = empty_world () in
        let a = build_machine table a and b = build_machine table b in
        List.for_all successors_match_filter
          [ a;
            b;
            Psm.union [ a; b ];
            fst (Combine_oracle.renumber a);
            fst (Combine_oracle.renumber (Psm.union [ b; a ])) ]);
    prop "merge is symmetric"
      (QCheck.pair (QCheck.pair (QCheck.float_range 0.1 100.) (QCheck.int_range 1 50))
         (QCheck.pair (QCheck.float_range 0.1 100.) (QCheck.int_range 1 50)))
      (fun ((mu1, n1), (mu2, n2)) ->
        let a = { Power_attr.mu = mu1; sigma = mu1 /. 10.; n = n1; intervals = [] } in
        let b = { Power_attr.mu = mu2; sigma = mu2 /. 10.; n = n2; intervals = [] } in
        Merge.mergeable Merge.default a b = Merge.mergeable Merge.default b a) ]

let suite =
  ( "core",
    [ Alcotest.test_case "assertion constructors" `Quick test_assertion_smart_constructors;
      Alcotest.test_case "assertion entry/exit" `Quick test_assertion_entry_exit;
      Alcotest.test_case "assertion nested entry/exit" `Quick
        test_assertion_nested_entry_exit;
      Alcotest.test_case "assertion props/pp" `Quick test_assertion_props_and_pp;
      Alcotest.test_case "assertion compare" `Quick test_assertion_compare_total;
      Alcotest.test_case "attr of interval" `Quick test_attr_of_interval;
      Alcotest.test_case "attr merge exact" `Quick test_attr_merge_exact;
      Alcotest.test_case "relative sigma" `Quick test_relative_sigma;
      Alcotest.test_case "psm construction" `Quick test_psm_construction;
      Alcotest.test_case "psm union" `Quick test_psm_union;
      Alcotest.test_case "psm outputs" `Quick test_psm_output_eval;
      Alcotest.test_case "XU Fig.5 walkthrough" `Quick test_xu_fig5_walkthrough;
      Alcotest.test_case "XU pure next" `Quick test_xu_pure_next_sequence;
      Alcotest.test_case "XU single run" `Quick test_xu_single_run;
      Alcotest.test_case "generator Fig.5 chain" `Quick test_generator_fig5_chain;
      Alcotest.test_case "generator trailing run" `Quick
        test_generator_long_trailing_run_gets_own_state;
      Alcotest.test_case "generator validates" `Quick test_generator_validates;
      Alcotest.test_case "generator attributes all instants" `Quick
        test_generator_every_instant_attributed;
      Alcotest.test_case "merge case 1" `Quick test_merge_case1;
      Alcotest.test_case "merge case 2" `Quick test_merge_case2;
      Alcotest.test_case "merge case 3" `Quick test_merge_case3;
      Alcotest.test_case "practical equivalence" `Quick test_merge_practical_equivalence;
      Alcotest.test_case "simplify merges adjacent" `Quick test_simplify_merges_adjacent;
      Alcotest.test_case "simplify preserves n" `Quick test_simplify_preserves_total_n;
      Alcotest.test_case "simplify keeps distinct" `Quick test_simplify_keeps_distinct;
      Alcotest.test_case "simplify traced" `Quick test_simplify_traced_mapping;
      Alcotest.test_case "join across machines" `Quick test_join_merges_across_machines;
      Alcotest.test_case "join alternatives" `Quick test_join_alternative_assertion;
      Alcotest.test_case "join monotone" `Quick test_join_never_increases_states;
      Alcotest.test_case "join self-loop" `Quick test_join_self_loop_from_internal_edge;
      Alcotest.test_case "optimize upgrades" `Quick test_optimize_upgrades_correlated_state;
      Alcotest.test_case "optimize skips uncorrelated" `Quick test_optimize_skips_uncorrelated;
      Alcotest.test_case "sim replays training" `Quick test_sim_single_replays_training;
      Alcotest.test_case "sim desyncs on unknown" `Quick test_sim_single_desyncs_on_unknown;
      Alcotest.test_case "sim rejects composites" `Quick test_sim_single_rejects_composites;
      Alcotest.test_case "dot renders" `Quick test_dot_renders;
      Alcotest.test_case "dot escapes hostile names" `Quick
        test_dot_escapes_hostile_names ]
    @ properties )
