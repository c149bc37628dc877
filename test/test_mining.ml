(* Tests for Psm_mining: atomic propositions, the vocabulary, the frequent
   miner and proposition traces — including the paper's Fig. 3 worked
   example recovered by the actual miner. *)

module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module FT = Psm_trace.Functional_trace
module Atomic = Psm_mining.Atomic
module Vocabulary = Psm_mining.Vocabulary
module Miner = Psm_mining.Miner
module Prop_trace = Psm_mining.Prop_trace
module Table = Prop_trace.Table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The paper's Fig. 3 trace. *)
let fig3_interface () =
  Interface.create
    [ Signal.input "v1" 1; Signal.input "v2" 1; Signal.input "v3" 3;
      Signal.output "v4" 3 ]

let fig3_trace () =
  let row v1 v2 v3 v4 =
    [| Bits.of_bool v1; Bits.of_bool v2; Bits.of_int ~width:3 v3; Bits.of_int ~width:3 v4 |]
  in
  FT.of_samples (fig3_interface ())
    [| row true false 3 1; row true false 3 1; row true false 3 1;
       row false true 3 3; row false true 4 4; row false true 2 2;
       row true true 0 0; row true true 3 1 |]

(* ---------- atomic propositions ---------- *)

let test_atomic_eval_const () =
  let sample = [| Bits.of_bool true; Bits.of_int ~width:4 7 |] in
  check_bool "v0 = 1" true (Atomic.eval (Atomic.eq_const 0 (Bits.of_bool true)) sample);
  check_bool "v1 = 7" true (Atomic.eval (Atomic.eq_const 1 (Bits.of_int ~width:4 7)) sample);
  check_bool "v1 = 3" false (Atomic.eval (Atomic.eq_const 1 (Bits.of_int ~width:4 3)) sample)

let test_atomic_eval_pairs () =
  let sample = [| Bits.of_int ~width:4 3; Bits.of_int ~width:4 9 |] in
  check_bool "lt" true (Atomic.eval (Atomic.compare_signals Atomic.Lt 0 1) sample);
  check_bool "gt" true (Atomic.eval (Atomic.compare_signals Atomic.Gt 1 0) sample);
  check_bool "eq" false (Atomic.eval (Atomic.compare_signals Atomic.Eq 0 1) sample)

let test_atomic_self_compare_rejected () =
  Alcotest.check_raises "self compare"
    (Invalid_argument "Atomic.compare_signals: signal compared to itself")
    (fun () -> ignore (Atomic.compare_signals Atomic.Eq 2 2))

let test_atomic_pp () =
  let iface = fig3_interface () in
  Alcotest.(check string) "const" "v1 = 1"
    (Atomic.to_string iface (Atomic.eq_const 0 (Bits.of_bool true)));
  Alcotest.(check string) "pair" "v3 > v4"
    (Atomic.to_string iface (Atomic.compare_signals Atomic.Gt 2 3))

(* ---------- vocabulary ---------- *)

let test_vocabulary_dedup_and_order () =
  let iface = fig3_interface () in
  let a = Atomic.eq_const 0 (Bits.of_bool true) in
  let b = Atomic.compare_signals Atomic.Gt 2 3 in
  let v = Vocabulary.create iface [ b; a; a; b ] in
  check_int "deduplicated" 2 (Vocabulary.size v)

let test_vocabulary_eval_row () =
  let iface = fig3_interface () in
  let v =
    Vocabulary.create iface
      [ Atomic.eq_const 0 (Bits.of_bool true); Atomic.compare_signals Atomic.Gt 2 3 ]
  in
  let trace = fig3_trace () in
  let row = Vocabulary.eval_sample v (FT.sample trace ~time:0) in
  Alcotest.(check (array bool)) "t0 row" [| true; true |] row;
  let row3 = Vocabulary.eval_sample v (FT.sample trace ~time:3) in
  Alcotest.(check (array bool)) "t3 row" [| false; false |] row3

let test_row_key_injective_on_rows () =
  let a = [| true; false; true |] and b = [| true; false; true |] in
  Alcotest.(check string) "equal rows equal keys" (Vocabulary.row_key a) (Vocabulary.row_key b);
  check_bool "different rows differ" false
    (Vocabulary.row_key a = Vocabulary.row_key [| true; true; true |])

(* ---------- miner ---------- *)

(* min_mean_run sits just above 2.5 so that marginal value atoms (v3 = 3
   holds 5 instants in 2 runs, mean 2.5) are excluded while v2's stable
   atoms (runs of 3 and 5) survive — the vocabulary the paper chose. *)
let fig3_config =
  { Miner.default with
    Miner.min_support = 0.1;
    min_mean_run = 2.6;
    max_short_run_fraction = 1.0 }

let test_miner_fig3_segmentation () =
  (* With Fig. 3's trace the miner must produce a vocabulary whose
     proposition trace has exactly the paper's segmentation: p_a [0,2],
     p_b [3,5], p_c [6,6], p_d [7,7]. *)
  let trace = fig3_trace () in
  let vocabulary = Miner.mine_vocabulary ~config:fig3_config [ trace ] in
  let table = Table.create vocabulary in
  let gamma = Prop_trace.of_functional table trace in
  let segments = Prop_trace.segments gamma in
  check_int "4 segments" 4 (List.length segments);
  Alcotest.(check (list (triple int int int)))
    "intervals"
    [ (0, 0, 2); (1, 3, 5); (2, 6, 6); (3, 7, 7) ]
    (List.map (fun (p, a, b) -> (p, a, b)) segments)

let test_miner_support_filter () =
  (* With an extreme support threshold nothing survives except atoms that
     hold on most of the trace. *)
  let trace = fig3_trace () in
  let vocabulary =
    Miner.mine_vocabulary
      ~config:{ fig3_config with Miner.min_support = 0.9 }
      [ trace ]
  in
  check_int "nothing frequent enough" 0 (Vocabulary.size vocabulary)

let test_miner_stability_filter () =
  (* A fast-flickering atom is rejected even with high support. *)
  let iface = Interface.create [ Signal.input "x" 1; Signal.output "y" 1 ] in
  let samples =
    Array.init 64 (fun i -> [| Bits.of_bool (i mod 2 = 0); Bits.of_bool (i < 32) |])
  in
  let trace = FT.of_samples iface samples in
  let vocabulary =
    Miner.mine_vocabulary
      ~config:{ Miner.default with Miner.min_support = 0.1; min_mean_run = 4. }
      [ trace ]
  in
  let names =
    Array.to_list (Vocabulary.atoms vocabulary)
    |> List.map (Atomic.to_string iface)
  in
  check_bool "x atoms rejected" true
    (not (List.exists (fun n -> String.length n >= 1 && n.[0] = 'x') names));
  check_bool "y atom kept" true
    (List.exists (fun n -> String.length n >= 1 && n.[0] = 'y') names)

let test_miner_short_run_fraction () =
  (* An atom stable in one phase and flickering in another is caught by
     the short-run-fraction criterion. *)
  let iface = Interface.create [ Signal.input "x" 1; Signal.output "c" 1 ] in
  let samples =
    Array.init 120 (fun i ->
        let x = if i < 40 then true else i mod 2 = 0 in
        [| Bits.of_bool x; Bits.of_bool true |])
  in
  let trace = FT.of_samples iface samples in
  let atoms config =
    Miner.mine_vocabulary ~config [ trace ]
    |> Vocabulary.atoms |> Array.to_list
    |> List.map (Atomic.to_string iface)
  in
  let strict =
    atoms { Miner.default with Miner.min_support = 0.05; min_mean_run = 2.;
            max_short_run_fraction = 0.25 }
  in
  check_bool "flicker-in-phase rejected" true
    (not (List.mem "x = 1" strict));
  let lax =
    atoms { Miner.default with Miner.min_support = 0.05; min_mean_run = 2.;
            max_short_run_fraction = 1.0 }
  in
  check_bool "kept when criterion disabled" true (List.mem "x = 1" lax)

let test_miner_width_caps () =
  let iface = Interface.create [ Signal.input "wide" 128; Signal.output "y" 1 ] in
  let v = Bits.of_hex_string ~width:128 "0123456789abcdeffedcba9876543210" in
  let samples = Array.make 50 [| v; Bits.of_bool true |] in
  let trace = FT.of_samples iface samples in
  let vocabulary = Miner.mine_vocabulary [ trace ] in
  let has_wide_atom =
    Array.exists
      (fun (a : Atomic.t) -> a.Atomic.lhs = 0)
      (Vocabulary.atoms vocabulary)
  in
  check_bool "no atoms on 128-bit buses" false has_wide_atom

let test_candidate_stats () =
  let trace = fig3_trace () in
  let inc = Miner.Incremental.create ~config:fig3_config (FT.interface trace) in
  FT.iter_runs (fun ~start:_ ~len sample -> Miner.Incremental.observe_run inc sample len) trace;
  Miner.Incremental.end_trace inc;
  let stats = Miner.Incremental.candidate_stats inc in
  let v1_true =
    List.find
      (fun s ->
        s.Miner.atom.Atomic.lhs = 0
        && Atomic.equal s.Miner.atom (Atomic.eq_const 0 (Bits.of_bool true)))
      stats
  in
  check_int "occurrences" 5 v1_true.Miner.occurrences;
  check_int "runs" 2 v1_true.Miner.runs;
  Alcotest.(check (float 1e-9)) "support" (5. /. 8.) v1_true.Miner.support;
  Alcotest.(check (float 1e-9)) "mean run" 2.5 v1_true.Miner.mean_run

(* ---------- value counter ---------- *)

let counter_snapshot counter =
  let acc = ref [] in
  Miner.Value_counter.iter
    (fun v ~occ ~runs ~short_runs -> acc := (Bits.to_int v, (occ, runs, short_runs)) :: !acc)
    counter;
  List.sort compare !acc

let test_value_counter_fold_reentrant () =
  (* Reading the statistics closes each value's open run in the report
     only: mutating the live entry would corrupt any later read or
     [observe]. *)
  let counter = Miner.Value_counter.create ~short_below:5 () in
  let v = Bits.of_int ~width:4 3 in
  Miner.Value_counter.observe counter 0 v;
  Miner.Value_counter.observe counter 1 v;
  Miner.Value_counter.observe counter 2 v;
  let first = counter_snapshot counter in
  Alcotest.(check (list (pair int (triple int int int))))
    "closed run visible" [ (3, (3, 1, 1)) ] first;
  Alcotest.(check (list (pair int (triple int int int))))
    "second read identical" first (counter_snapshot counter)

let test_value_counter_observe_after_fold () =
  let counter = Miner.Value_counter.create ~short_below:5 () in
  let v = Bits.of_int ~width:4 3 in
  Miner.Value_counter.observe counter 0 v;
  Miner.Value_counter.observe counter 1 v;
  Miner.Value_counter.observe counter 2 v;
  ignore (counter_snapshot counter);
  (* The run continues at time 3: still one run, now of length 4. *)
  Miner.Value_counter.observe counter 3 v;
  Alcotest.(check (list (pair int (triple int int int))))
    "run continued, not double-counted"
    [ (3, (4, 1, 1)) ]
    (counter_snapshot counter)

let test_value_counter_pruning () =
  (* Hapax values are dropped once the table outgrows [prune_at];
     repeated values survive with their full statistics. *)
  let counter = Miner.Value_counter.create ~prune_at:3 ~short_below:1 () in
  let value i = Bits.of_int ~width:8 i in
  let frequent = value 100 in
  Miner.Value_counter.observe counter 0 frequent;
  Miner.Value_counter.observe counter 1 (value 1);
  Miner.Value_counter.observe counter 2 (value 2);
  Miner.Value_counter.observe counter 3 frequent;
  (* 4th distinct value pushes the table over prune_at = 3: every value
     seen once (1, 2 and 3) is dropped. *)
  Miner.Value_counter.observe counter 4 (value 3);
  Miner.Value_counter.observe counter 5 (value 4);
  Alcotest.(check (list (pair int (triple int int int))))
    "hapaxes pruned, frequent value intact"
    [ (4, (1, 1, 0)); (100, (2, 2, 0)) ]
    (counter_snapshot counter)

(* Five values of equal support on one signal, capped at four: the four
   seen first win. First-seen order (5, 1, 7, 3) differs from both the
   four smallest (1, 3, 5, 6) and the four largest (3, 5, 6, 7). *)
let test_cap_tie_first_seen () =
  let iface = Interface.create [ Signal.input "x" 3 ] in
  let samples =
    List.concat_map (fun v -> List.init 4 (fun _ -> [| Bits.of_int ~width:3 v |])) [ 5; 1; 7; 3; 6 ]
  in
  let trace = FT.of_samples iface (Array.of_list samples) in
  let vocabulary = Miner.mine_vocabulary [ trace ] in
  let kept =
    Array.to_list (Vocabulary.atoms vocabulary)
    |> List.map (fun (a : Atomic.t) ->
           match a.Atomic.rhs with Atomic.Const v -> Bits.to_int v | Atomic.Sig _ -> -1)
  in
  Alcotest.(check (list int)) "first four seen" [ 1; 3; 5; 7 ] kept

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Vocabulary mining over each paper IP's Table II short-TS capture,
   measured like test sim's front-end cases: every run updates the value
   counters in place, so only new values and the candidate lists
   allocate on the minor heap. The counters' entry arrays, once past 256
   entries, grow in the major heap; that storage follows the number of
   distinct values, not cycles, and is not counted here. *)
let test_mining_allocation () =
  List.iter
    (fun (name, make) ->
      let ip = make () in
      let suite =
        Psm_ips.Workloads.suite ~total_length:(Psm_ips.Workloads.paper_short_length name)
          ~long:false name
      in
      let traces = List.map (fun st -> fst (Psm_ips.Capture.run ip st)) suite in
      let cycles = List.fold_left (fun n t -> n + FT.length t) 0 traces in
      let words = minor_words (fun () -> ignore (Miner.mine_vocabulary traces)) in
      let per_cycle = words /. float_of_int cycles in
      if per_cycle > 2. then
        Alcotest.failf "%s: %.2f words per cycle (%d cycles), want <= 2" name per_cycle cycles)
    [ ("RAM", Psm_ips.Ram.create);
      ("MultSum", Psm_ips.Multsum.create);
      ("AES", Psm_ips.Aes.create);
      ("Camellia", Psm_ips.Camellia.create) ]

(* ---------- proposition traces ---------- *)

let test_table_interning () =
  let trace = fig3_trace () in
  let vocabulary = Miner.mine_vocabulary ~config:fig3_config [ trace ] in
  let table = Table.create vocabulary in
  let s0 = FT.sample trace ~time:0 in
  let id0 = Table.classify_or_add table s0 in
  check_int "same row same id" id0 (Table.classify_or_add table s0);
  Alcotest.(check (option int)) "classify finds it" (Some id0) (Table.classify table s0);
  check_int "count" 1 (Table.prop_count table)

let test_classify_unknown () =
  let trace = fig3_trace () in
  let vocabulary = Miner.mine_vocabulary ~config:fig3_config [ trace ] in
  let table = Table.create vocabulary in
  ignore (Prop_trace.of_functional table trace);
  (* A sample whose truth row never occurred: v1=0, v2=0. *)
  let unknown =
    [| Bits.of_bool false; Bits.of_bool false; Bits.of_int ~width:3 1;
       Bits.of_int ~width:3 5 |]
  in
  Alcotest.(check (option int)) "unknown row" None (Table.classify table unknown)

let test_prop_names () =
  let trace = fig3_trace () in
  let vocabulary = Miner.mine_vocabulary ~config:fig3_config [ trace ] in
  let table = Table.create vocabulary in
  ignore (Prop_trace.of_functional table trace);
  Alcotest.(check string) "p_a" "p_a" (Table.name table 0);
  Alcotest.(check string) "p_b" "p_b" (Table.name table 1)

let test_holds_exactly_one () =
  let trace = fig3_trace () in
  let vocabulary = Miner.mine_vocabulary ~config:fig3_config [ trace ] in
  let table = Table.create vocabulary in
  let gamma = Prop_trace.of_functional table trace in
  check_bool "invariant" true (Prop_trace.holds_exactly_one gamma trace)

let test_segments_cover () =
  let trace = fig3_trace () in
  let vocabulary = Miner.mine_vocabulary ~config:fig3_config [ trace ] in
  let table = Table.create vocabulary in
  let gamma = Prop_trace.of_functional table trace in
  let segments = Prop_trace.segments gamma in
  (* Segments tile [0, n-1] without gaps or overlaps. *)
  let _ =
    List.fold_left
      (fun expected (_, start, stop) ->
        check_int "contiguous" expected start;
        check_bool "ordered" true (stop >= start);
        stop + 1)
      0 segments
  in
  ()

(* ---------- properties ---------- *)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:40 ~name arb f)

let arb_small_trace =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 60 in
      let iface = Interface.create [ Signal.input "a" 1; Signal.input "b" 4; Signal.output "c" 4 ] in
      let* samples =
        list_size (return n)
          (map2
             (fun a b -> [| Bits.of_bool a; Bits.of_int ~width:4 (b land 15); Bits.of_int ~width:4 ((b / 3) land 15) |])
             bool (int_bound 40))
      in
      return (FT.of_samples iface (Array.of_list samples)))
  in
  QCheck.make gen

let lax_config =
  { Miner.default with Miner.min_support = 0.05; min_mean_run = 1.;
    max_short_run_fraction = 1.0 }

(* A value stream in runs: (value, length, trace gap before it). *)
let arb_counter_stream =
  QCheck.make
    ~print:(fun (prune_at, short_below, runs) ->
      Printf.sprintf "prune_at=%d short_below=%d %s" prune_at short_below
        (String.concat " "
           (List.map (fun (v, len, gap) -> Printf.sprintf "%s%dx%d" (if gap then "| " else "") v len) runs)))
    QCheck.Gen.(
      triple (int_range 1 8) (int_range 1 5)
        (list_size (int_range 1 80)
           (triple (int_bound 11) (frequency [ (3, return 1); (2, int_range 2 6) ])
              (frequency [ (9, return false); (1, return true) ]))))

(* The library counter fed run by run against the Hashtbl oracle fed
   cycle by cycle: the same statistics, in the oracle's first-seen
   order. *)
let counter_matches_oracle (prune_at, short_below, runs) =
  let counter = Miner.Value_counter.create ~prune_at ~short_below () in
  let oracle = Miner_oracle.Value_counter.create ~prune_at ~short_below () in
  let time = ref 0 in
  List.iter
    (fun (v, len, gap) ->
      if gap then time := !time + 2;
      let v = Bits.of_int ~width:4 v in
      Miner.Value_counter.observe_run counter !time v len;
      for i = 0 to len - 1 do
        Miner_oracle.Value_counter.observe oracle (!time + i) v
      done;
      time := !time + len)
    runs;
  let actual = ref [] in
  Miner.Value_counter.iter
    (fun v ~occ ~runs ~short_runs -> actual := (Bits.to_int v, occ, runs, short_runs) :: !actual)
    counter;
  let expected =
    Miner_oracle.Value_counter.fold
      (fun v (c : Miner_oracle.Value_counter.cell) acc ->
        (c.first, (Bits.to_int v, c.occ, c.runs, c.short_runs)) :: acc)
      oracle []
    |> List.sort compare |> List.map snd
  in
  List.rev !actual = expected && Miner.Value_counter.length counter = List.length expected

(* One to three traces given as runs of samples over two 3-bit signals
   (constants and a pair), a flag and a 40-bit bus (no constants). *)
let arb_mining_traces =
  let iface =
    Interface.create
      [ Signal.input "a" 3; Signal.output "b" 3; Signal.input "c" 1; Signal.input "w" 40 ]
  in
  let run =
    QCheck.Gen.(
      map
        (fun (a, b, c, (w, len)) ->
          List.init len (fun _ ->
              [| Bits.of_int ~width:3 a; Bits.of_int ~width:3 b; Bits.of_bool c;
                 Bits.of_int ~width:40 w |]))
        (quad (int_bound 7) (int_bound 7) bool (pair (int_bound 3) (int_range 1 8))))
  in
  QCheck.make
    ~print:(fun (lax, traces) ->
      Printf.sprintf "lax=%b lengths=[%s]" lax
        (String.concat "; " (List.map (fun t -> string_of_int (FT.length t)) traces)))
    QCheck.Gen.(
      pair bool
        (list_size (int_range 1 3)
           (map
              (fun runs -> FT.of_samples iface (Array.of_list (List.concat runs)))
              (list_size (int_range 1 25) run))))

let vocabulary_matches_oracle (lax, traces) =
  let config =
    if lax then
      { Miner.default with Miner.min_support = 0.05; min_mean_run = 2.;
        max_short_run_fraction = 0.5; max_consts_per_signal = 3 }
    else Miner.default
  in
  let atoms v = Array.to_list (Vocabulary.atoms v) in
  let expected = atoms (Miner_oracle.vocabulary ~config traces) in
  let actual = atoms (Miner.mine_vocabulary ~config traces) in
  List.length expected = List.length actual && List.for_all2 Atomic.equal expected actual

let properties =
  [ prop "exactly-one-holds for any trace" arb_small_trace (fun trace ->
        let vocabulary = Miner.mine_vocabulary ~config:lax_config [ trace ] in
        if Vocabulary.size vocabulary = 0 then true
        else begin
          let table = Table.create vocabulary in
          let gamma = Prop_trace.of_functional table trace in
          Prop_trace.holds_exactly_one gamma trace
        end);
    prop "segments tile the trace" arb_small_trace (fun trace ->
        let vocabulary = Miner.mine_vocabulary ~config:lax_config [ trace ] in
        if Vocabulary.size vocabulary = 0 then true
        else begin
          let table = Table.create vocabulary in
          let gamma = Prop_trace.of_functional table trace in
          let segments = Prop_trace.segments gamma in
          let covered =
            List.fold_left
              (fun acc (_, start, stop) ->
                match acc with
                | Some expected when start = expected -> Some (stop + 1)
                | _ -> None)
              (Some 0) segments
          in
          covered = Some (FT.length trace)
        end);
    prop "every training sample classifies" arb_small_trace (fun trace ->
        let vocabulary = Miner.mine_vocabulary ~config:lax_config [ trace ] in
        if Vocabulary.size vocabulary = 0 then true
        else begin
          let table = Table.create vocabulary in
          ignore (Prop_trace.of_functional table trace);
          let ok = ref true in
          FT.iter
            (fun _ sample ->
              if Table.classify table sample = None then ok := false)
            trace;
          !ok
        end);
    prop "classification stable across re-runs" arb_small_trace (fun trace ->
        let vocabulary = Miner.mine_vocabulary ~config:lax_config [ trace ] in
        if Vocabulary.size vocabulary = 0 then true
        else begin
          let table = Table.create vocabulary in
          let g1 = Prop_trace.of_functional table trace in
          let g2 = Prop_trace.of_functional table trace in
          Prop_trace.prop_ids g1 = Prop_trace.prop_ids g2
        end);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"value counter = Hashtbl oracle" arb_counter_stream
         counter_matches_oracle);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"vocabulary = per-cycle oracle" arb_mining_traces
         vocabulary_matches_oracle) ]

(* ---------- negate and literals_of_key ---------- *)

let test_atomic_negate () =
  (* Over every sample, exactly one of [t] and the atoms of [negate t]
     holds (trichotomy), for both const and var–var operands. *)
  let samples =
    List.concat_map
      (fun a ->
        List.map
          (fun b ->
            [| Bits.of_bool true; Bits.of_bool false;
               Bits.of_int ~width:3 a; Bits.of_int ~width:3 b |])
          [ 0; 1; 3; 7 ])
      [ 0; 2; 3; 5 ]
  in
  let atoms =
    [ Atomic.eq_const 2 (Bits.of_int ~width:3 3);
      { Atomic.lhs = 2; cmp = Atomic.Lt; rhs = Atomic.Const (Bits.of_int ~width:3 4) };
      { Atomic.lhs = 2; cmp = Atomic.Gt; rhs = Atomic.Const (Bits.of_int ~width:3 4) };
      Atomic.compare_signals Atomic.Eq 2 3;
      Atomic.compare_signals Atomic.Lt 2 3;
      Atomic.compare_signals Atomic.Gt 2 3 ]
  in
  List.iter
    (fun t ->
      let negs = Atomic.negate t in
      check_int "negation is a two-atom disjunction" 2 (List.length negs);
      List.iter
        (fun s ->
          let holds = List.filter (fun a -> Atomic.eval a s) (t :: negs) in
          check_int "exactly one of t and its negation atoms holds" 1
            (List.length holds))
        samples)
    atoms

let test_literals_of_key () =
  let iface = fig3_interface () in
  let voc =
    Vocabulary.create iface
      [ Atomic.eq_const 0 (Bits.of_bool true);
        Atomic.eq_const 2 (Bits.of_int ~width:3 3);
        Atomic.compare_signals Atomic.Gt 2 3 ]
  in
  let row = [| true; false; true |] in
  let literals = Vocabulary.literals_of_key voc (Vocabulary.row_key row) in
  check_int "one literal per atom" (Vocabulary.size voc) (List.length literals);
  List.iteri
    (fun i (atom, polarity) ->
      check_bool "atom order matches the vocabulary" true
        (Atomic.equal atom (Vocabulary.atom voc i));
      check_bool "polarity matches the row" true (polarity = row.(i)))
    literals;
  (* A sample consistent with the row satisfies exactly the literals. *)
  let sample =
    [| Bits.of_bool true; Bits.of_bool false;
       Bits.of_int ~width:3 5; Bits.of_int ~width:3 1 |]
  in
  check_bool "row is the truth assignment of its literals" true
    (List.for_all (fun (a, pol) -> Atomic.eval a sample = pol) literals);
  check_bool "wrong key size rejected" true
    (try
       ignore (Vocabulary.literals_of_key voc "too long for this vocabulary");
       false
     with Invalid_argument _ -> true)

let suite =
  ( "mining",
    [ Alcotest.test_case "atomic const eval" `Quick test_atomic_eval_const;
      Alcotest.test_case "atomic negate" `Quick test_atomic_negate;
      Alcotest.test_case "literals of key" `Quick test_literals_of_key;
      Alcotest.test_case "atomic pair eval" `Quick test_atomic_eval_pairs;
      Alcotest.test_case "atomic self-compare" `Quick test_atomic_self_compare_rejected;
      Alcotest.test_case "atomic printing" `Quick test_atomic_pp;
      Alcotest.test_case "vocabulary dedup" `Quick test_vocabulary_dedup_and_order;
      Alcotest.test_case "vocabulary rows" `Quick test_vocabulary_eval_row;
      Alcotest.test_case "row keys" `Quick test_row_key_injective_on_rows;
      Alcotest.test_case "Fig.3 segmentation" `Quick test_miner_fig3_segmentation;
      Alcotest.test_case "support filter" `Quick test_miner_support_filter;
      Alcotest.test_case "stability filter" `Quick test_miner_stability_filter;
      Alcotest.test_case "short-run fraction" `Quick test_miner_short_run_fraction;
      Alcotest.test_case "width caps" `Quick test_miner_width_caps;
      Alcotest.test_case "candidate stats" `Quick test_candidate_stats;
      Alcotest.test_case "value counter fold reentrant" `Quick
        test_value_counter_fold_reentrant;
      Alcotest.test_case "value counter observe after fold" `Quick
        test_value_counter_observe_after_fold;
      Alcotest.test_case "value counter pruning" `Quick test_value_counter_pruning;
      Alcotest.test_case "cap ties: first seen wins" `Quick test_cap_tie_first_seen;
      Alcotest.test_case "mining allocation per cycle" `Quick test_mining_allocation;
      Alcotest.test_case "interning" `Quick test_table_interning;
      Alcotest.test_case "unknown row" `Quick test_classify_unknown;
      Alcotest.test_case "prop names" `Quick test_prop_names;
      Alcotest.test_case "exactly-one invariant" `Quick test_holds_exactly_one;
      Alcotest.test_case "segments cover" `Quick test_segments_cover ]
    @ properties )
