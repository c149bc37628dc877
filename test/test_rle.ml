(* Run-length compaction equivalence: every run-aware library path must
   be bit-identical to the per-cycle oracle in [Per_cycle]. Pinned the
   same three ways stream≡batch is pinned: deterministic adversarial run
   shapes, the bundled-IP captures, and a QCheck property over random
   traces — with *exact* float comparison, because the optimization's
   contract is bit-identity, not tolerance. *)

module Flow = Psm_flow.Flow
module Stream = Psm_flow.Stream_train
module Persist = Psm_flow.Persist
module Estimate = Psm_flow.Estimate
module Psm = Psm_core.Psm
module Assertion = Psm_core.Assertion
module Power_attr = Psm_core.Power_attr
module Optimize = Psm_core.Optimize
module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Interface = Psm_trace.Interface
module Signal = Psm_trace.Signal
module Runs = Psm_trace.Runs
module Bits = Psm_bits.Bits
module Miner = Psm_mining.Miner
module Prop_trace = Psm_mining.Prop_trace
module Multi_sim = Psm_hmm.Multi_sim
module Hmm = Psm_hmm.Hmm
module Filtering = Psm_hmm.Filtering
module Offline = Psm_hmm.Offline
module Coverage = Psm_flow.Coverage
module Engine = Psm_serve.Engine
module Vcd = Psm_trace.Vcd

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let exact label expected actual =
  if not (Float.equal expected actual) then
    Alcotest.failf "%s: per-cycle %.17g, RLE %.17g" label expected actual

(* ---------- the Runs structure itself ---------- *)

let iface2 =
  Interface.create [ Signal.input "a" 2; Signal.input "b" 1; Signal.output "c" 1 ]

let sample2 a b c = [| Bits.of_int ~width:2 a; Bits.of_int ~width:1 b; Bits.of_int ~width:1 c |]

let test_runs_structure () =
  (* Builder-incremental runs = lazy equality scan, on a mixed shape. *)
  let rows = [ (0, 0, 0); (0, 0, 0); (1, 1, 0); (1, 1, 0); (1, 1, 0); (2, 0, 1) ] in
  let builder = Functional_trace.Builder.create iface2 in
  List.iter (fun (a, b, c) -> Functional_trace.Builder.append builder (sample2 a b c)) rows;
  let built = Functional_trace.Builder.finish builder in
  let scanned =
    Functional_trace.of_samples iface2
      (Array.of_list (List.map (fun (a, b, c) -> sample2 a b c) rows))
  in
  let rb = Functional_trace.runs built and rs = Functional_trace.runs scanned in
  check_int "count" (Runs.count rs) (Runs.count rb);
  check_int "total" (Runs.total rs) (Runs.total rb);
  check_int "count value" 3 (Runs.count rb);
  check_int "total value" 6 (Runs.total rb);
  check_int "max run" 3 (Runs.max_run rb);
  exact "mean run" 2. (Runs.mean_run rb);
  exact "compression" 0.5 (Runs.compression rb);
  Alcotest.(check (list (pair int int))) "histogram" [ (0, 1); (1, 2) ] (Runs.histogram rb);
  let collected = ref [] in
  Runs.iter rb (fun ~index ~start ~len -> collected := (index, start, len) :: !collected);
  Alcotest.(check (list (triple int int int)))
    "iter" [ (0, 0, 2); (1, 2, 3); (2, 5, 1) ] (List.rev !collected);
  (* Empty trace. *)
  let empty = Functional_trace.of_samples iface2 [||] in
  check_int "empty count" 0 (Runs.count (Functional_trace.runs empty));
  exact "empty compression" 1. (Runs.compression (Functional_trace.runs empty))

(* ---------- bulk counter primitives ---------- *)

let test_value_counter_run () =
  (* observe_run ≡ the per-cycle observe loop, including around hapax
     pruning (tiny prune_at forces the fallback path). *)
  let snapshot c =
    let acc = ref [] in
    Miner.Value_counter.iter
      (fun v ~occ ~runs ~short_runs -> acc := (v, (occ, runs, short_runs)) :: !acc)
      c;
    !acc
  in
  let vals = [| Bits.of_int ~width:4 3; Bits.of_int ~width:4 9; Bits.of_int ~width:4 12 |] in
  List.iter
    (fun prune_at ->
      let reference = Miner.Value_counter.create ?prune_at ~short_below:4 () in
      let bulk = Miner.Value_counter.create ?prune_at ~short_below:4 () in
      let time = ref 0 in
      let feed v len =
        for i = 0 to len - 1 do
          Miner.Value_counter.observe reference (!time + i) v
        done;
        Miner.Value_counter.observe_run bulk !time v len;
        time := !time + len
      in
      feed vals.(0) 5;
      feed vals.(1) 1;
      feed vals.(0) 3;
      feed vals.(2) 7;
      time := !time + 2 (* trace gap *);
      feed vals.(2) 4;
      feed vals.(1) 2;
      let label = Printf.sprintf "prune_at=%s"
          (match prune_at with Some p -> string_of_int p | None -> "default") in
      List.iter2
        (fun (va, (occ_a, runs_a, short_a)) (vb, (occ_b, runs_b, short_b)) ->
          check_bool (label ^ " value") true (Bits.equal va vb);
          check_int (label ^ " occ") occ_a occ_b;
          check_int (label ^ " runs") runs_a runs_b;
          check_int (label ^ " short") short_a short_b)
        (snapshot reference) (snapshot bulk))
    [ None; Some 1; Some 2 ]

(* ---------- adversarial run shapes ---------- *)

let adversarial_interface = Interface.create [ Signal.input "x" 2; Signal.output "y" 1 ]

let adv_trace rows powers =
  ( Functional_trace.of_samples adversarial_interface
      (Array.of_list
         (List.map (fun (x, y) -> [| Bits.of_int ~width:2 x; Bits.of_int ~width:1 y |]) rows)),
    Power_trace.of_array (Array.of_list powers) )

(* All-distinct rows: every cycle is its own run. *)
let all_distinct n =
  adv_trace
    (List.init n (fun i -> (i mod 4, (i / 4) mod 2)))
    (List.init n (fun i -> 1. +. float_of_int (i mod 7)))

(* One giant run: the whole trace is a single self-loop. *)
let giant_run n =
  adv_trace (List.init n (fun _ -> (2, 1))) (List.init n (fun i -> 5. +. (0.5 *. float_of_int (i mod 3))))

(* Alternating 2-cycle runs: AABBAABB… *)
let alternating n =
  adv_trace
    (List.init n (fun i -> if i mod 4 < 2 then (1, 0) else (3, 1)))
    (List.init n (fun i -> if i mod 4 < 2 then 2. else 9.))

(* ---------- exact model comparison ---------- *)

let sorted_states psm =
  List.sort (fun (a : Psm.state) b -> compare a.Psm.id b.Psm.id) (Psm.states psm)

let check_attr label (a : Power_attr.t) (b : Power_attr.t) =
  exact (label ^ " mu") a.Power_attr.mu b.Power_attr.mu;
  exact (label ^ " sigma") a.Power_attr.sigma b.Power_attr.sigma;
  check_int (label ^ " n") a.Power_attr.n b.Power_attr.n;
  Alcotest.(check (list (triple int int int)))
    (label ^ " intervals")
    (List.map (fun iv -> (iv.Power_attr.trace, iv.Power_attr.start, iv.Power_attr.stop))
       a.Power_attr.intervals)
    (List.map (fun iv -> (iv.Power_attr.trace, iv.Power_attr.start, iv.Power_attr.stop))
       b.Power_attr.intervals)

let check_counts label a b =
  check_int (label ^ " entries") (List.length a) (List.length b);
  List.iter2
    (fun ((ka : int * int), va) ((kb : int * int), vb) ->
      Alcotest.(check (pair int int)) (label ^ " key") ka kb;
      exact (label ^ " value") va vb)
    a b

let check_psm_exact name ap bp =
  check_int (name ^ " states") (Psm.state_count ap) (Psm.state_count bp);
  check_int (name ^ " transitions") (Psm.transition_count ap) (Psm.transition_count bp);
  Alcotest.(check (list int)) (name ^ " initial") (Psm.initial ap) (Psm.initial bp);
  Alcotest.(check (list (triple int int int)))
    (name ^ " transition set")
    (List.map (fun (t : Psm.transition) -> (t.Psm.src, t.Psm.guard, t.Psm.dst))
       (Psm.transitions ap))
    (List.map (fun (t : Psm.transition) -> (t.Psm.src, t.Psm.guard, t.Psm.dst))
       (Psm.transitions bp));
  List.iter2
    (fun (a : Psm.state) (b : Psm.state) ->
      let label = Printf.sprintf "%s state %d" name a.Psm.id in
      check_int (label ^ " id") a.Psm.id b.Psm.id;
      check_bool (label ^ " assertion") true (Assertion.equal a.Psm.assertion b.Psm.assertion);
      check_attr label a.Psm.attr b.Psm.attr;
      (match (a.Psm.output, b.Psm.output) with
      | Psm.Const x, Psm.Const y -> exact (label ^ " const") x y
      | Psm.Affine fa, Psm.Affine fb ->
          exact (label ^ " slope") fa.slope fb.slope;
          exact (label ^ " intercept") fa.intercept fb.intercept
      | _ -> Alcotest.failf "%s: output kinds differ" label);
      check_int (label ^ " components") (List.length a.Psm.components)
        (List.length b.Psm.components);
      List.iter2
        (fun (aa, aattr) (ba, battr) ->
          check_bool (label ^ " component assertion") true (Assertion.equal aa ba);
          check_attr (label ^ " component") aattr battr)
        a.Psm.components b.Psm.components)
    (sorted_states ap) (sorted_states bp)

let check_table_exact name (a : Prop_trace.Table.t) (b : Prop_trace.Table.t) =
  let atoms t = Array.to_list (Psm_mining.Vocabulary.atoms (Prop_trace.Table.vocabulary t)) in
  check_bool (name ^ " vocabulary") true
    (List.equal Psm_mining.Atomic.equal (atoms a) (atoms b));
  check_int (name ^ " props") (Prop_trace.Table.prop_count a) (Prop_trace.Table.prop_count b);
  for p = 0 to Prop_trace.Table.prop_count a - 1 do
    Alcotest.(check (array bool)) (name ^ " row") (Prop_trace.Table.row a p)
      (Prop_trace.Table.row b p)
  done

let check_reports_exact name a b =
  check_int (name ^ " reports") (List.length a) (List.length b);
  List.iter2
    (fun (ra : Optimize.report) (rb : Optimize.report) ->
      check_int (name ^ " report state") ra.Optimize.state_id rb.Optimize.state_id;
      check_bool (name ^ " report upgraded") ra.Optimize.upgraded rb.Optimize.upgraded;
      exact (name ^ " report sigma") ra.Optimize.relative_sigma rb.Optimize.relative_sigma;
      exact (name ^ " report r") ra.Optimize.correlation rb.Optimize.correlation)
    a b

let check_hmm_exact name a b =
  let m = Hmm.state_count a in
  check_int (name ^ " hmm states") m (Hmm.state_count b);
  check_int (name ^ " hmm observations") (Hmm.observation_count a) (Hmm.observation_count b);
  Array.iter2 (exact (name ^ " hmm pi")) (Hmm.pi a) (Hmm.pi b);
  for i = 0 to m - 1 do
    check_int (name ^ " hmm row state") (Hmm.state_of_row a i) (Hmm.state_of_row b i);
    Array.iter2 (exact (name ^ " hmm A")) (Hmm.a_row a i) (Hmm.a_row b i);
    for o = 0 to Hmm.observation_count a - 1 do
      exact (name ^ " hmm B") (Hmm.b_obs a i o) (Hmm.b_obs b i o)
    done
  done

let check_trained_exact name (o : Per_cycle.model) (a : Flow.trained) =
  check_table_exact name o.Per_cycle.table a.Flow.table;
  check_int (name ^ " gammas") (Array.length o.Per_cycle.gammas) (Array.length a.Flow.gammas);
  Array.iter2
    (fun ids g -> Alcotest.(check (array int)) (name ^ " gamma") ids (Prop_trace.prop_ids g))
    o.Per_cycle.gammas a.Flow.gammas;
  check_psm_exact (name ^ " raw") o.Per_cycle.raw a.Flow.raw;
  check_psm_exact name o.Per_cycle.optimized a.Flow.optimized;
  check_counts (name ^ " transition counts") o.Per_cycle.transition_counts
    a.Flow.transition_counts;
  check_counts (name ^ " emission counts") o.Per_cycle.emission_counts a.Flow.emission_counts;
  check_reports_exact name o.Per_cycle.optimize_reports a.Flow.optimize_reports;
  check_hmm_exact name o.Per_cycle.hmm a.Flow.hmm

(* The streamed model against the oracle: everything the trainer derives
   from Γ exactly; its floats against the same trainer on toggled traces
   (see [Per_cycle.with_toggle]). *)
let check_stream_exact name (o : Per_cycle.model) ~(per_cycle : Stream.result)
    (a : Stream.result) =
  check_table_exact name o.Per_cycle.table a.Stream.table;
  check_int (name ^ " cycles")
    (Array.fold_left (fun n g -> n + Array.length g) 0 o.Per_cycle.gammas)
    a.Stream.cycles;
  check_counts (name ^ " transition counts") o.Per_cycle.transition_counts
    a.Stream.transition_counts;
  check_counts (name ^ " emission counts") o.Per_cycle.emission_counts a.Stream.emission_counts;
  check_int (name ^ " toggled cycles") per_cycle.Stream.cycles a.Stream.cycles;
  check_psm_exact name per_cycle.Stream.optimized a.Stream.optimized;
  check_reports_exact name per_cycle.Stream.optimize_reports a.Stream.optimize_reports

(* Simulation-side equivalence on one model: every estimator that the
   sample front end ([Sample_tracker]) feeds — Multi_sim, the filtering
   posterior stream, Viterbi decoding, coverage, the estimate sessions
   stepped sample by sample in both modes, and the serve engine's VCD
   uploads — each against steps fed the oracle's per-instant
   classification and input Hamming distance. *)
let check_simulation_exact name (trained : Flow.trained) traces =
  let hmm = trained.Flow.hmm and table = trained.Flow.table in
  let model = { Persist.table; psm = trained.Flow.optimized; hmm } in
  let check_served what expected actual =
    check_int (name ^ what ^ " cycles") (Array.length expected) (Array.length actual);
    Array.iter2
      (fun (pa, sa) (pb, sb) ->
        exact (name ^ what ^ " power") pa pb;
        check_int (name ^ what ^ " state") sa sb)
      expected actual
  in
  let check_powers what expected actual =
    check_int (name ^ what ^ " cycles") (Array.length expected) (Array.length actual);
    Array.iter2 (exact (name ^ what ^ " power")) expected actual
  in
  (* One session stepped on the oracle's observations of [docs] in turn,
     each document its own trace (its first distance 0). *)
  let stepped mode docs =
    let est = Estimate.of_model ~mode model in
    Array.concat
      (List.map
         (fun doc ->
           Array.map (fun (o, hd) -> Estimate.step est ~hd o) (Per_cycle.observations table doc))
         docs)
  in
  let sampled mode trace =
    let est = Estimate.of_model ~mode model in
    Array.init (Functional_trace.length trace) (fun time ->
        Estimate.step_sample est (Functional_trace.sample trace ~time))
  in
  let engine = Engine.create [ ("m", model) ] in
  let get = function Ok x -> x | Error e -> Alcotest.fail e in
  let upload ~id ~mode docs =
    get (Engine.open_session engine ~id ~model:"m" ~mode);
    List.iter
      (fun doc ->
        check_int (name ^ " vcd enqueued") (Functional_trace.length doc)
          (get (Engine.vcd_chunk engine ~id ~chunk:(Vcd.to_string doc) ~last:true)))
      docs;
    ignore (Engine.drain engine);
    get (Engine.take_results engine ~id ~count:max_int)
  in
  List.iteri
    (fun i trace ->
      let n = Functional_trace.length trace in
      let observations = Per_cycle.observations table trace in
      let expected, wrong = Per_cycle.simulate hmm trace in
      let sim = Multi_sim.simulate hmm trace in
      check_served " sim" expected
        (Array.map2 (fun e s -> (e, s)) sim.Multi_sim.estimate sim.Multi_sim.state_trace);
      check_int (name ^ " sim wrong") wrong sim.Multi_sim.wrong_instants;
      check_served " sim samples" (stepped `Sim [ trace ]) (sampled `Sim trace);
      let filter = stepped `Filter [ trace ] in
      check_served " filter samples" filter (sampled `Filter trace);
      check_powers " expected power" (Array.map fst filter)
        (Filtering.expected_power (Filtering.create hmm) trace);
      check_powers " offline"
        (Array.mapi
           (fun time row ->
             Psm.eval_output
               (Psm.state model.Persist.psm (Hmm.state_of_row hmm row)).Psm.output
               ~hamming:(snd observations.(time)))
           (Offline.viterbi hmm (Array.map fst observations)))
        (Offline.estimate hmm trace);
      let unknown =
        List.filter (fun time -> fst observations.(time) = None) (List.init n Fun.id)
      in
      let coverage = Coverage.of_trace hmm trace in
      check_int (name ^ " known instants") (n - List.length unknown)
        coverage.Coverage.known_instants;
      Alcotest.(check (list int))
        (name ^ " unknown instants")
        (List.filteri (fun k _ -> k < 10) unknown)
        coverage.Coverage.unknown_row_samples;
      check_served " vcd" filter (upload ~id:(Printf.sprintf "f%d" i) ~mode:`Filter [ trace ]);
      (* Three documents, cut inside the trace: each restarts at
         distance 0 while the session carries on. *)
      let cut1 = n / 3 and cut2 = 2 * n / 3 in
      let docs =
        [ Functional_trace.sub trace ~start:0 ~stop:(cut1 - 1);
          Functional_trace.sub trace ~start:cut1 ~stop:(cut2 - 1);
          Functional_trace.sub trace ~start:cut2 ~stop:(n - 1) ]
      in
      check_served " vcd documents" (stepped `Sim docs)
        (upload ~id:(Printf.sprintf "s%d" i) ~mode:`Sim docs))
    traces

(* Every scored mining candidate, before the vocabulary filter drops
   most of them. *)
let check_candidates_exact name traces =
  let key (s : Miner.atom_stats) = (s.Miner.occurrences, s.Miner.runs, s.Miner.short_runs) in
  let actual =
    let inc = Miner.Incremental.create (Functional_trace.interface (List.hd traces)) in
    List.iter
      (fun trace ->
        Functional_trace.iter_runs
          (fun ~start:_ ~len sample -> Miner.Incremental.observe_run inc sample len)
          trace;
        Miner.Incremental.end_trace inc)
      traces;
    Miner.Incremental.candidate_stats inc
  in
  let expected = Per_cycle.candidate_stats traces in
  check_int (name ^ " candidates") (List.length expected) (List.length actual);
  List.iter2
    (fun (a : Miner.atom_stats) (b : Miner.atom_stats) ->
      check_bool (name ^ " candidate atom") true (Psm_mining.Atomic.equal a.Miner.atom b.Miner.atom);
      Alcotest.(check (triple int int int)) (name ^ " candidate counts") (key a) (key b))
    expected actual

let check_all_exact name pairs =
  let traces, powers = List.split pairs in
  check_candidates_exact name traces;
  let oracle = Per_cycle.train ~traces ~powers () in
  let trained = Flow.train ~traces ~powers () in
  check_trained_exact name oracle trained;
  check_stream_exact (name ^ " stream") oracle
    ~per_cycle:
      (Stream.train_traces ~traces:(List.map Per_cycle.with_toggle traces)
         ~powers ())
    (Stream.train_traces ~traces ~powers ());
  check_simulation_exact name trained traces

let test_adversarial_shapes () =
  check_all_exact "all-distinct" [ all_distinct 120 ];
  check_all_exact "giant-run" [ giant_run 150 ];
  check_all_exact "alternating" [ alternating 160 ];
  (* Mixed multi-trace: all three shapes as one training set. *)
  check_all_exact "mixed" [ all_distinct 90; giant_run 110; alternating 100 ]

(* ---------- bundled IP ---------- *)

let test_ip_equivalence () =
  let traces, powers = Test_stream.capture_suite ~total_length:3000 "RAM" Psm_ips.Ram.create in
  check_all_exact "RAM" (List.combine traces powers)

(* ---------- QCheck property ---------- *)

let test_random_rle_equiv =
  QCheck.Test.make ~count:25 ~name:"RLE pipeline = per-cycle pipeline on random traces"
    (QCheck.make Test_stream.gen_pair) (fun pairs ->
      check_all_exact "random" pairs;
      true)

(* ---------- prop-trace segment view ---------- *)

let test_iter_prop_runs () =
  let trace, _ = alternating 40 in
  let vocabulary = Miner.mine_vocabulary [ trace ] in
  let table = Prop_trace.Table.create vocabulary in
  let gamma = Prop_trace.of_functional table trace in
  let n = Prop_trace.length gamma in
  (* Windowed per-run iteration must cover exactly the per-cycle ids. *)
  List.iter
    (fun (start, stop) ->
      let expect = ref [] in
      for t = stop downto start do
        expect := Prop_trace.prop_at gamma t :: !expect
      done;
      let got = ref [] in
      Prop_trace.iter_prop_runs gamma ~start ~stop (fun p ~start:_ ~len ->
          for _ = 1 to len do
            got := p :: !got
          done);
      Alcotest.(check (list int))
        (Printf.sprintf "window [%d,%d]" start stop)
        !expect (List.rev !got))
    [ (0, n - 1); (0, 0); (n - 1, n - 1); (3, 17); (1, n - 2) ];
  (* Γ itself is the per-instant classification. *)
  Alcotest.(check (array int)) "gamma ids"
    (Per_cycle.gamma_ids (Prop_trace.Table.create vocabulary) trace)
    (Prop_trace.prop_ids gamma)

let suite =
  ( "rle",
    [ Alcotest.test_case "runs: builder = scan, stats" `Quick test_runs_structure;
      Alcotest.test_case "value counter bulk = per-cycle (pruning)" `Quick
        test_value_counter_run;
      Alcotest.test_case "prop-trace segment windows" `Quick test_iter_prop_runs;
      Alcotest.test_case "adversarial shapes: rle = per-cycle" `Quick
        test_adversarial_shapes;
      Alcotest.test_case "RAM capture: rle = per-cycle" `Slow test_ip_equivalence;
      QCheck_alcotest.to_alcotest test_random_rle_equiv ] )
