(* Tests for Psm_hmm: the HMM λ = ⟨A, B, π⟩, filtering, the multi-PSM
   simulator with resynchronization, and the accuracy metrics. *)

module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module FT = Psm_trace.Functional_trace
module PT = Psm_trace.Power_trace
module Assertion = Psm_core.Assertion
module Psm = Psm_core.Psm
module Generator = Psm_core.Generator
module Hmm = Psm_hmm.Hmm
module Multi_sim = Psm_hmm.Multi_sim
module Accuracy = Psm_hmm.Accuracy
module Vocabulary = Psm_mining.Vocabulary
module Prop_trace = Psm_mining.Prop_trace
module Table = Prop_trace.Table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let close = Alcotest.(check (float 1e-9))

(* Same synthetic world as test_core: one 4-bit signal whose value is the
   proposition. *)
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

let trace_of table values =
  let iface = Vocabulary.interface (Table.vocabulary table) in
  FT.of_samples iface
    (Array.of_list
       (List.map (fun v -> [| Bits.of_int ~width:4 v; Bits.of_bool false |]) values))

let train values powers =
  let table, trace, gamma, delta = world values powers in
  let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  let simplified = Psm_core.Simplify.simplify psm in
  let joined = Psm_core.Join.join simplified in
  (table, trace, delta, joined)

(* ---------- HMM construction ---------- *)

let test_hmm_rows_stochastic () =
  let _, _, _, psm = train [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 2; 2; 2 ] (List.init 12 (fun i -> float_of_int (i mod 3 + 1))) in
  let hmm = Hmm.build psm in
  let m = Hmm.state_count hmm in
  for i = 0 to m - 1 do
    let total = ref 0. in
    for j = 0 to m - 1 do
      let a = Hmm.a hmm i j in
      check_bool "non-negative" true (a >= 0.);
      total := !total +. a
    done;
    Alcotest.(check (float 1e-9)) "row sums to 1" 1. !total
  done

let test_hmm_pi_from_initials () =
  let table, _, _, _ = world [ 0; 1 ] [ 1.; 1. ] in
  let attr mu : Psm_core.Power_attr.t = { mu; sigma = 0.; n = 5; intervals = [] } in
  let psm = Psm.empty table in
  let psm, a = Psm.add_state psm (Assertion.Until (0, 1)) (attr 1.) in
  let psm, b = Psm.add_state psm (Assertion.Until (1, 0)) (attr 2.) in
  let psm = Psm.add_initial psm a in
  let psm = Psm.add_initial psm a in
  let psm = Psm.add_initial psm b in
  let hmm = Hmm.build psm in
  let pi = Hmm.pi hmm in
  close "pi[a]" (2. /. 3.) pi.(Hmm.row_of_state hmm a);
  close "pi[b]" (1. /. 3.) pi.(Hmm.row_of_state hmm b)

let test_hmm_b_entry () =
  (* A joined state with components entering on different propositions
     spreads its emission mass. *)
  let table, _, _, _ = world [ 0; 1; 2; 3 ] [ 1.; 1.; 1.; 1. ] in
  let attr : Psm_core.Power_attr.t = { mu = 1.; sigma = 0.; n = 5; intervals = [] } in
  let psm = Psm.empty table in
  let psm, a = Psm.add_state psm (Assertion.Until (0, 1)) attr in
  let psm, b = Psm.add_state psm (Assertion.Until (2, 3)) attr in
  let joined =
    fst
      (Psm.merge_clusters psm ~internal_edges:`Self_loop
         [ { Psm.members = [ a; b ];
             new_assertion = Assertion.alt [ Assertion.Until (0, 1); Assertion.Until (2, 3) ];
             new_attr = attr;
             new_components = [ (Assertion.Until (0, 1), attr); (Assertion.Until (2, 3), attr) ] } ])
  in
  let hmm = Hmm.build joined in
  let row = Hmm.row_of_state hmm (List.hd (Psm.states joined)).Psm.id in
  close "entry 0" 0.5 (Hmm.b_entry hmm row 0);
  close "entry 2" 0.5 (Hmm.b_entry hmm row 2);
  close "entry 1" 0. (Hmm.b_entry hmm row 1)

let test_hmm_predict_normalized () =
  let _, _, _, psm = train [ 0; 0; 1; 1; 0; 0; 2; 2; 0; 0 ] (List.init 10 (fun i -> float_of_int (1 + (i mod 4)))) in
  let hmm = Hmm.build psm in
  let belief = Hmm.initial_belief hmm in
  let belief' = Hmm.predict hmm belief in
  let total = Array.fold_left ( +. ) 0. belief' in
  close "normalized" 1. total

let test_hmm_ban_and_reset () =
  (* Powers far apart so nothing merges and inter-state edges survive. *)
  let values = [ 0; 0; 1; 1; 2; 2; 0; 0; 1; 1; 2; 2 ] in
  let _, _, _, psm = train values (List.map (fun v -> 10. ** float_of_int v) values) in
  let hmm = Hmm.build psm in
  (* Find a nonzero A entry, ban it, check zero, reset, check restored. *)
  let m = Hmm.state_count hmm in
  let found = ref None in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if !found = None && Hmm.a hmm i j > 0. && i <> j then found := Some (i, j)
    done
  done;
  match !found with
  | None -> Alcotest.fail "no transitions at all"
  | Some (i, j) ->
      let original = Hmm.a hmm i j in
      Hmm.ban hmm ~src_row:i ~dst_row:j;
      close "banned" 0. (Hmm.a hmm i j);
      Hmm.reset_bans hmm;
      close "restored" original (Hmm.a hmm i j)

let test_hmm_transition_counts_weighting () =
  (* Frequency-weighted A: a destination entered 3x as often in training
     gets 3x the probability. *)
  let table, _, _, _ = world [ 0; 1; 2 ] [ 1.; 1.; 1. ] in
  let attr : Psm_core.Power_attr.t = { mu = 1.; sigma = 0.; n = 5; intervals = [] } in
  let psm = Psm.empty table in
  let psm, src = Psm.add_state psm (Assertion.Until (0, 1)) attr in
  let psm, d1 = Psm.add_state psm (Assertion.Until (1, 0)) attr in
  let psm, d2 = Psm.add_state psm (Assertion.Until (2, 0)) { attr with mu = 9. } in
  let psm = Psm.add_transition psm ~src ~guard:1 ~dst:d1 in
  let psm = Psm.add_transition psm ~src ~guard:2 ~dst:d2 in
  let hmm = Hmm.build ~transition_counts:[ ((src, d1), 3.); ((src, d2), 1.) ] psm in
  let r = Hmm.row_of_state hmm src in
  close "3:1 weighting" 0.75 (Hmm.a hmm r (Hmm.row_of_state hmm d1))

(* ---------- multi-PSM simulation ---------- *)

let test_multi_sim_replays_training () =
  let values = [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 2; 2; 2; 0; 0; 0 ] in
  let powers = List.map (fun v -> float_of_int ((v * 4) + 1)) values in
  let _, trace, delta, psm = train values powers in
  let hmm = Hmm.build psm in
  let result = Multi_sim.simulate hmm trace in
  check_int "no wrong instants" 0 result.Multi_sim.wrong_instants;
  let report = Accuracy.of_result ~reference:delta result in
  Alcotest.(check bool) "tiny MRE" true (report.Accuracy.mre < 1e-9)

let test_multi_sim_cascade_states () =
  (* Force a Seq state by making three power-similar adjacent states, and
     check the cascade is tracked through. *)
  let values = [ 0; 0; 1; 1; 2; 2; 9; 9; 9; 0; 0; 1; 1; 2; 2; 9; 9; 9 ] in
  let powers =
    List.map (fun v -> if v = 9 then 50. else 5.) values
  in
  let _, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let result = Multi_sim.simulate hmm trace in
  check_int "no wrong instants" 0 result.Multi_sim.wrong_instants;
  (* Spot check: the low-power cascade instants estimate 5. *)
  close "cascade power" 5. result.Multi_sim.estimate.(2);
  close "high power" 50. result.Multi_sim.estimate.(7)

let test_multi_sim_resync_recovers () =
  (* Training alternates a/b; the test trace interposes an unknown
     proposition. With resync the machine must recover and keep
     estimating; the unknown instants are counted wrong. *)
  let values = [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 1; 1; 1 ] in
  let powers = List.map (fun v -> if v = 0 then 2. else 8.) values in
  let table, _, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let test_trace = trace_of table [ 0; 0; 0; 7; 7; 1; 1; 1; 0; 0; 1; 1 ] in
  let result = Multi_sim.simulate hmm test_trace in
  check_bool "some wrong instants" true (result.Multi_sim.wrong_instants >= 2);
  check_bool "recovers" true (result.Multi_sim.state_trace.(6) >= 0);
  check_bool "wsp fraction" true (result.Multi_sim.wsp < 0.5)

let test_multi_sim_resync_ablation () =
  (* Without resync, recovery requires the origin state itself to match;
     jumping elsewhere is forbidden, so more instants stay wrong. *)
  let values = [ 0; 0; 0; 1; 1; 1; 2; 2; 2; 0; 0; 0; 1; 1; 1; 2; 2; 2 ] in
  let powers = List.map (fun v -> float_of_int ((v * 3) + 1)) values in
  let table, _, _, psm = train values powers in
  let hmm = Hmm.build psm in
  (* Jump from inside the 0-run to the 2-run (never seen as a 0->2
     transition at that point), then behave normally. *)
  let test_trace = trace_of table [ 0; 0; 7; 2; 2; 2; 0; 0; 0; 1; 1; 1 ] in
  let with_resync = Multi_sim.simulate hmm test_trace in
  let without =
    Multi_sim.simulate
      ~config:{ Multi_sim.default with Multi_sim.resync_enabled = false }
      hmm test_trace
  in
  check_bool "resync at least as good" true
    (with_resync.Multi_sim.wrong_instants <= without.Multi_sim.wrong_instants)

let test_multi_sim_never_estimates_negative () =
  let values = [ 0; 0; 1; 1; 0; 0; 1; 1 ] in
  let powers = [ 1.; 1.; 5.; 5.; 1.; 1.; 5.; 5. ] in
  let table, _, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let test_trace = trace_of table [ 0; 1; 0; 1; 7; 7; 0; 1 ] in
  let result = Multi_sim.simulate hmm test_trace in
  Array.iter (fun e -> check_bool "non-negative" true (e >= 0.)) result.Multi_sim.estimate

let test_stepper_incremental_matches_batch () =
  let values = [ 0; 0; 0; 1; 1; 1; 2; 2; 0; 0; 1; 1 ] in
  let powers = List.map (fun v -> float_of_int (v + 1)) values in
  let table, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let batch = Multi_sim.simulate hmm trace in
  let stepper = Multi_sim.Stepper.create hmm in
  let tracker = Psm_mining.Sample_tracker.create table in
  FT.iter
    (fun t sample ->
      Psm_mining.Sample_tracker.observe tracker sample;
      Multi_sim.Stepper.advance stepper ~hamming:(Psm_mining.Sample_tracker.hamming tracker)
        (Psm_mining.Sample_tracker.code tracker);
      close "same estimate" batch.Multi_sim.estimate.(t) (Multi_sim.Stepper.power stepper);
      check_int "same state" batch.Multi_sim.state_trace.(t) (Multi_sim.Stepper.state stepper))
    trace

(* ---------- offline (Viterbi) decoding ---------- *)

let test_viterbi_matches_online_on_clean_replay () =
  let values = [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 2; 2; 2; 0; 0; 0 ] in
  let powers = List.map (fun v -> float_of_int ((v * 4) + 1)) values in
  let _, trace, delta, psm = train values powers in
  let hmm = Hmm.build psm in
  let offline = Psm_hmm.Offline.evaluate hmm trace ~reference:delta in
  Alcotest.(check bool) "near exact" true (offline.Accuracy.mre < 1e-9)

let test_viterbi_known_lattice () =
  (* Two far-apart power levels with distinct observations: the decoded
     sequence must match the observation segmentation exactly. *)
  let values = [ 0; 0; 0; 3; 3; 3; 3; 0; 0 ] in
  let powers = List.map (fun v -> if v = 0 then 1. else 100.) values in
  let table, trace, _, psm = train values powers in
  ignore table;
  let hmm = Hmm.build psm in
  let decoded = Psm_hmm.Offline.decode hmm trace in
  let psm_of t = (Psm.state psm decoded.(t)).Psm.attr.Psm_core.Power_attr.mu in
  Alcotest.(check (float 1e-9)) "low state at 0" 1. (psm_of 0);
  Alcotest.(check (float 1e-9)) "high state at 4" 100. (psm_of 4);
  Alcotest.(check (float 1e-9)) "low again at 8" 1. (psm_of 8)

let test_viterbi_handles_unknown_observations () =
  let values = [ 0; 0; 0; 1; 1; 1 ] in
  let powers = [ 2.; 2.; 2.; 8.; 8.; 8. ] in
  let table, _, _, psm = train values powers in
  let hmm = Hmm.build psm in
  (* A test trace with an unseen proposition in the middle. *)
  let test_trace = trace_of table [ 0; 0; 7; 1; 1; 1 ] in
  let est = Psm_hmm.Offline.estimate hmm test_trace in
  Alcotest.(check int) "full length" 6 (Array.length est);
  Array.iter (fun e -> Alcotest.(check bool) "finite" true (Float.is_finite e)) est

(* ---------- forward filtering ---------- *)

let test_filtering_posteriors_normalized () =
  let values = [ 0; 0; 1; 1; 2; 2; 0; 0 ] in
  let powers = List.map (fun v -> float_of_int ((v * 5) + 1)) values in
  let _, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let f = Psm_hmm.Filtering.create hmm in
  let obs =
    Array.init (FT.length trace) (fun time ->
        Table.classify (Psm.prop_table psm) (FT.sample trace ~time))
  in
  let post = Psm_hmm.Filtering.posteriors f obs in
  Array.iter
    (fun belief ->
      let total = Array.fold_left ( +. ) 0. belief in
      Alcotest.(check (float 1e-9)) "normalized" 1. total)
    post

let test_filtering_map_matches_truth_on_clean_chain () =
  let values = [ 0; 0; 0; 3; 3; 3; 0; 0; 0 ] in
  let powers = List.map (fun v -> if v = 0 then 1. else 50.) values in
  let _, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let f = Psm_hmm.Filtering.create hmm in
  let est = Psm_hmm.Filtering.expected_power f trace in
  (* Posterior-weighted power lands close to the truth everywhere. *)
  List.iteri
    (fun t truth ->
      Alcotest.(check bool)
        (Printf.sprintf "instant %d" t)
        true
        (abs_float (est.(t) -. truth) /. truth < 0.25))
    powers

let test_filtering_likelihood_ranks_workloads () =
  (* A trace from the training distribution scores higher per instant
     than a shuffled alien trace. *)
  let values = [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 1; 1; 1; 0; 0; 0; 1; 1; 1 ] in
  let powers = List.map (fun v -> float_of_int ((v * 5) + 1)) values in
  let table, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let f = Psm_hmm.Filtering.create hmm in
  let obs_of tr =
    Array.init (FT.length tr) (fun time ->
        Table.classify (Psm.prop_table psm) (FT.sample tr ~time))
  in
  let familiar = Psm_hmm.Filtering.log_likelihood f (obs_of trace) in
  let alien = trace_of table [ 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0 ] in
  let alien_ll = Psm_hmm.Filtering.log_likelihood f (obs_of alien) in
  Alcotest.(check bool) "familiar more likely" true (familiar > alien_ll)

(* ---------- accuracy ---------- *)

let test_accuracy_zero_error () =
  let reference = PT.of_array [| 1.; 2.; 3. |] in
  let r = Accuracy.of_estimate ~reference ~estimate:[| 1.; 2.; 3. |] ~wsp:0. in
  close "mre" 0. r.Accuracy.mre;
  close "rmse" 0. r.Accuracy.rmse;
  close "total" 0. r.Accuracy.total_energy_error

let test_accuracy_known_error () =
  let reference = PT.of_array [| 10.; 10. |] in
  let r = Accuracy.of_estimate ~reference ~estimate:[| 12.; 10. |] ~wsp:0.25 in
  close "mre" 0.1 r.Accuracy.mre;
  close "rmse" (sqrt 2.) r.Accuracy.rmse;
  close "total" 0.1 r.Accuracy.total_energy_error;
  close "wsp carried" 0.25 r.Accuracy.wsp

let test_accuracy_validates_lengths () =
  let reference = PT.of_array [| 1. |] in
  check_bool "length mismatch" true
    (try
       ignore (Accuracy.of_estimate ~reference ~estimate:[| 1.; 2. |] ~wsp:0.);
       false
     with Invalid_argument _ -> true)

(* ---------- Viterbi tie-breaking ---------- *)

let test_viterbi_adversarial_ties () =
  (* Three interchangeable states (same power attributes, each initial
     once, uniform A): every score ties wherever the lattice is
     symmetric, so the decoded path shows the tie-breaking directly. *)
  let table, _, _, _ = world [ 0; 1; 2 ] [ 1.; 1.; 1. ] in
  let attr : Psm_core.Power_attr.t = { mu = 1.; sigma = 0.; n = 1; intervals = [] } in
  let psm = Psm.empty table in
  let psm, a = Psm.add_state psm (Assertion.Until (0, 1)) attr in
  let psm, b = Psm.add_state psm (Assertion.Until (0, 2)) attr in
  let psm, c = Psm.add_state psm (Assertion.Until (1, 2)) attr in
  let psm = List.fold_left Psm.add_initial psm [ a; b; c ] in
  (* a and b both emit proposition 0, only c emits proposition 1. *)
  let hmm =
    Hmm.build ~emission_counts:[ ((a, 0), 1.); ((b, 0), 1.); ((c, 1), 1.) ] psm
  in
  let m = Hmm.state_count hmm in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      Hmm.unsafe_set_a hmm ~row:i ~col:j (1. /. float_of_int m)
    done
  done;
  (* Uninformative observations: all final scores tie, and each state's
     own dwell is its best predecessor — the path stays in row 0. *)
  let path = Psm_hmm.Offline.viterbi hmm (Array.make 200 None) in
  check_bool "tied lattice: lowest row throughout" true
    (Array.for_all (fun r -> r = 0) path);
  (* Proposition 0 then 1: c is the only end state, and its best
     predecessors a and b tie exactly — the lower row must win. *)
  let ra = Hmm.row_of_state hmm a and rb = Hmm.row_of_state hmm b in
  let rc = Hmm.row_of_state hmm c in
  let path = Psm_hmm.Offline.viterbi hmm [| Some 0; Some 1 |] in
  check_bool "tied predecessors: lowest row" true (path = [| min ra rb; rc |])

(* ---------- properties ---------- *)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:50 ~name arb f)

let arb_values = QCheck.(list_of_size Gen.(int_range 4 60) (int_bound 4))

let properties =
  [ prop "training replay stays mostly synchronized" arb_values (fun values ->
        QCheck.assume (List.length values >= 4);
        let powers = List.map (fun v -> float_of_int ((v * 2) + 1)) values in
        let _, trace, delta, psm = train values powers in
        let hmm = Hmm.build psm in
        let result = Multi_sim.simulate hmm trace in
        let report = Accuracy.of_result ~reference:delta result in
        (* Even on its own training trace the simulator can mispredict:
           join deliberately produces states with identical assertions,
           and a wrong non-deterministic choice only surfaces a few
           instants later — this is precisely the paper's WSP phenomenon.
           The guarantees that DO hold: the machine stays synchronized on
           at least half the instants (resynchronization works) and the
           estimate remains sane. *)
        result.Multi_sim.wsp <= 0.5 && Float.is_finite report.Accuracy.mre);
    prop "belief stays normalized through prediction" arb_values (fun values ->
        QCheck.assume (List.length values >= 2);
        let powers = List.map (fun v -> float_of_int (v + 1)) values in
        let _, _, _, psm = train values powers in
        let hmm = Hmm.build psm in
        let b = ref (Hmm.initial_belief hmm) in
        let ok = ref true in
        for _ = 1 to 10 do
          b := Hmm.predict hmm !b;
          let total = Array.fold_left ( +. ) 0. !b in
          if abs_float (total -. 1.) > 1e-6 then ok := false
        done;
        !ok);
    prop "wsp bounded" arb_values (fun values ->
        QCheck.assume (List.length values >= 4);
        let powers = List.map (fun v -> float_of_int (v + 1)) values in
        let table, _, _, psm = train values powers in
        let hmm = Hmm.build psm in
        (* Evaluate on a shuffled variant (same alphabet, new order). *)
        let shuffled = List.rev values in
        let result = Multi_sim.simulate hmm (trace_of table shuffled) in
        result.Multi_sim.wsp >= 0. && result.Multi_sim.wsp <= 1.);
    (* ---------- the forward kernel against a dense product ---------- *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"sparse scatter/gather ≡ dense product"
         QCheck.(make Gen.(pair (int_range 1 12) (int_bound 1_000_000)))
         (fun (m, seed) ->
           let rng = Random.State.make [| seed |] in
           (* Zero rows, zero columns and zero belief entries all occur. *)
           let sparse_value () =
             if Random.State.int rng 3 = 0 then Random.State.float rng 1. else 0.
           in
           let a =
             Array.init m (fun _ ->
                 if Random.State.int rng 4 = 0 then Array.make m 0.
                 else Array.init m (fun _ -> sparse_value ()))
           in
           let x = Array.init m (fun _ -> sparse_value ()) in
           let csr = Psm_hmm.Sparse.of_dense a in
           let same u v =
             Array.for_all2
               (fun p q -> Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q))
               u v
           in
           (* Scatter accumulates into [out] without clearing it. *)
           let out0 = Array.init m (fun _ -> Random.State.float rng 1.) in
           let scattered = Array.copy out0 in
           Psm_hmm.Sparse.scatter_product csr x scattered;
           let dense_acc = Array.copy out0 in
           for i = 0 to m - 1 do
             for j = 0 to m - 1 do
               dense_acc.(j) <- dense_acc.(j) +. (x.(i) *. a.(i).(j))
             done
           done;
           let gathered = Array.make m nan and total = [| nan |] in
           Psm_hmm.Sparse.gather_scaled (Psm_hmm.Sparse.transpose csr) x
             ~scale:(Array.make m 1.) gathered ~total;
           let dense =
             Array.init m (fun j ->
                 let acc = ref 0. in
                 for i = 0 to m - 1 do
                   acc := !acc +. (x.(i) *. a.(i).(j))
                 done;
                 !acc)
           in
           same scattered dense_acc && same gathered dense
           && same total [| Array.fold_left ( +. ) 0. dense |]
           && Psm_hmm.Sparse.nnz csr
              = Array.fold_left
                  (fun n row -> Array.fold_left (fun n v -> if v <> 0. then n + 1 else n) n row)
                  0 a));
    prop "multi-sim indexes ≡ transition-list scans" arb_values (fun values ->
        QCheck.assume (List.length values >= 4);
        let powers = List.map (fun v -> float_of_int (v + 1)) values in
        let table, _, _, psm = train values powers in
        let hmm = Hmm.build psm in
        let plan = Multi_sim.Plan.create hmm in
        let stepper = Multi_sim.Stepper.of_plan plan in
        let m = Hmm.state_count hmm in
        let nprops = Table.prop_count table in
        let assertion r = (Psm.state psm (Hmm.state_of_row hmm r)).Psm.assertion in
        let scan_successors ~row ~o =
          List.filter_map
            (fun (tr : Psm.transition) ->
              if Hmm.row_of_state hmm tr.Psm.src = row && tr.Psm.guard = o then
                Some (Hmm.row_of_state hmm tr.Psm.dst)
              else None)
            (Psm.transitions psm)
          |> List.sort_uniq Int.compare
        in
        let scan_entries ~o =
          List.init m Fun.id
          |> List.filter (fun r ->
                 List.exists
                   (fun alt -> Assertion.entry_props alt = [ o ])
                   (Assertion.alternatives (assertion r)))
        in
        (* The filtered score of the one-hot belief, the long way round. *)
        let predicted_scores ~origin_row ~prop =
          let belief = Array.make m 0. in
          belief.(origin_row) <- 1.;
          let predicted = Hmm.predict hmm belief in
          List.init m (fun r -> (r, predicted.(r) *. Hmm.b_entry hmm r prop))
        in
        let scores_agree () =
          List.for_all
            (fun origin_row ->
              List.for_all
                (fun prop ->
                  Multi_sim.Stepper.choice_scores stepper ~origin_row ~prop
                    (List.init m Fun.id)
                  = predicted_scores ~origin_row ~prop)
                (List.init nprops Fun.id))
            (List.init m Fun.id)
        in
        let indexes_agree =
          List.for_all
            (fun o ->
              Multi_sim.Plan.entry_rows plan ~o = scan_entries ~o
              && List.for_all
                   (fun row ->
                     Multi_sim.Plan.successor_rows plan ~row ~o
                     = scan_successors ~row ~o)
                   (List.init m Fun.id))
            (List.init nprops Fun.id)
        in
        let fresh = scores_agree () in
        (* Again after the same bans in the stepper's overlay and in the
           model's A (a row that loses every entry takes the uniform
           fallback): the overlay renormalizes as [Hmm.ban] does. *)
        for row = 0 to m - 1 do
          for dst = 0 to m - 1 do
            if (row + dst) mod 2 = 0 then begin
              Multi_sim.Stepper.ban stepper ~src:row ~dst;
              Hmm.ban hmm ~src_row:row ~dst_row:dst
            end
          done
        done;
        indexes_agree && fresh && scores_agree ()) ]

let suite =
  ( "hmm",
    [ Alcotest.test_case "A rows stochastic" `Quick test_hmm_rows_stochastic;
      Alcotest.test_case "pi from initials" `Quick test_hmm_pi_from_initials;
      Alcotest.test_case "B entry emission" `Quick test_hmm_b_entry;
      Alcotest.test_case "predict normalized" `Quick test_hmm_predict_normalized;
      Alcotest.test_case "ban and reset" `Quick test_hmm_ban_and_reset;
      Alcotest.test_case "viterbi adversarial ties" `Quick test_viterbi_adversarial_ties;
      Alcotest.test_case "transition count weighting" `Quick test_hmm_transition_counts_weighting;
      Alcotest.test_case "replay training" `Quick test_multi_sim_replays_training;
      Alcotest.test_case "cascade states" `Quick test_multi_sim_cascade_states;
      Alcotest.test_case "resync recovers" `Quick test_multi_sim_resync_recovers;
      Alcotest.test_case "resync ablation" `Quick test_multi_sim_resync_ablation;
      Alcotest.test_case "non-negative estimates" `Quick test_multi_sim_never_estimates_negative;
      Alcotest.test_case "stepper matches batch" `Quick test_stepper_incremental_matches_batch;
      Alcotest.test_case "filtering normalized" `Quick test_filtering_posteriors_normalized;
      Alcotest.test_case "filtering tracks truth" `Quick test_filtering_map_matches_truth_on_clean_chain;
      Alcotest.test_case "likelihood diagnostic" `Quick test_filtering_likelihood_ranks_workloads;
      Alcotest.test_case "viterbi clean replay" `Quick test_viterbi_matches_online_on_clean_replay;
      Alcotest.test_case "viterbi known lattice" `Quick test_viterbi_known_lattice;
      Alcotest.test_case "viterbi unknown obs" `Quick test_viterbi_handles_unknown_observations;
      Alcotest.test_case "accuracy zero" `Quick test_accuracy_zero_error;
      Alcotest.test_case "accuracy known" `Quick test_accuracy_known_error;
      Alcotest.test_case "accuracy validates" `Quick test_accuracy_validates_lengths ]
    @ properties )
