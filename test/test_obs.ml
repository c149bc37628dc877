(* Tests for the Psm_obs observability subsystem: span nesting and
   balance, deterministic merge of per-domain buffers, the
   disabled-sink-is-free guarantee, and Chrome trace-event export. *)

module Obs = Psm_obs
module J = Json_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every test runs with a clean sink and leaves it disabled: the sink is
   global state shared with every other suite in this binary. *)
let with_recording f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect f ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())

let event_names summary =
  List.map (fun (e : Obs.span_event) -> e.Obs.span_name) summary.Obs.events

(* ---------- spans ---------- *)

let test_span_returns_value () =
  Obs.disable ();
  check_int "disabled" 42 (Obs.span "t" (fun () -> 42));
  with_recording @@ fun () -> check_int "enabled" 42 (Obs.span "t" (fun () -> 42))

let test_span_nesting_depth () =
  with_recording @@ fun () ->
  Obs.span "outer" (fun () ->
      Obs.span "inner" (fun () -> Obs.span "leaf" (fun () -> ())));
  Obs.span "sibling" (fun () -> ());
  let summary = Obs.snapshot () in
  check_int "four events" 4 (List.length summary.Obs.events);
  let depth name =
    let e =
      List.find (fun (e : Obs.span_event) -> e.Obs.span_name = name) summary.Obs.events
    in
    e.Obs.depth
  in
  check_int "outer at depth 0" 0 (depth "outer");
  check_int "inner at depth 1" 1 (depth "inner");
  check_int "leaf at depth 2" 2 (depth "leaf");
  check_int "sibling back at depth 0" 0 (depth "sibling")

let test_span_balance_and_containment () =
  with_recording @@ fun () ->
  Obs.span "outer" (fun () ->
      Obs.span "inner" (fun () -> ignore (Sys.opaque_identity (ref 0))));
  let summary = Obs.snapshot () in
  let find name =
    List.find (fun (e : Obs.span_event) -> e.Obs.span_name = name) summary.Obs.events
  in
  let outer = find "outer" and inner = find "inner" in
  check_bool "durations non-negative" true
    (outer.Obs.dur_us >= 0. && inner.Obs.dur_us >= 0.);
  check_bool "inner starts within outer" true (inner.Obs.start_us >= outer.Obs.start_us);
  check_bool "inner ends within outer" true
    (inner.Obs.start_us +. inner.Obs.dur_us
    <= outer.Obs.start_us +. outer.Obs.dur_us +. 1e-6)

let test_span_closes_on_exception () =
  with_recording @@ fun () ->
  (try Obs.span "failing" (fun () -> failwith "boom") with Failure _ -> ());
  let summary = Obs.snapshot () in
  check_int "span recorded despite raise" 1 (List.length summary.Obs.events);
  (* Depth must be rebalanced: a follow-up span sits at depth 0 again. *)
  Obs.span "after" (fun () -> ());
  let summary = Obs.snapshot () in
  let after =
    List.find
      (fun (e : Obs.span_event) -> e.Obs.span_name = "after")
      summary.Obs.events
  in
  check_int "depth rebalanced after raise" 0 after.Obs.depth

let test_counters_and_histograms () =
  with_recording @@ fun () ->
  Obs.count "c" 3;
  Obs.incr "c";
  Obs.observe "h" 2.;
  Obs.observe "h" 4.;
  let summary = Obs.snapshot () in
  Alcotest.(check (float 1e-9)) "counter sums" 4.
    (List.assoc "c" summary.Obs.counters);
  let h = List.assoc "h" summary.Obs.histograms in
  check_int "histogram n" 2 h.Obs.n;
  Alcotest.(check (float 1e-9)) "histogram mean" 3. h.Obs.mean;
  Alcotest.(check (float 1e-9)) "histogram min" 2. h.Obs.min;
  Alcotest.(check (float 1e-9)) "histogram max" 4. h.Obs.max

let test_reset_clears () =
  with_recording @@ fun () ->
  Obs.span "s" (fun () -> ());
  Obs.count "c" 1;
  Obs.reset ();
  let summary = Obs.snapshot () in
  check_int "no events" 0 (List.length summary.Obs.events);
  check_int "no counters" 0 (List.length summary.Obs.counters)

let test_span_totals () =
  with_recording @@ fun () ->
  Obs.span "a" (fun () -> ());
  Obs.span "a" (fun () -> ());
  Obs.span "b" (fun () -> ());
  let totals = Obs.span_totals () in
  check_int "two names" 2 (List.length totals);
  Alcotest.(check (list string)) "sorted by name" [ "a"; "b" ] (List.map fst totals);
  check_bool "a total >= 0" true (Obs.span_total "a" >= 0.);
  Alcotest.(check (float 0.)) "unknown name is 0" 0. (Obs.span_total "nope");
  let summary = Obs.snapshot () in
  let stat = List.assoc "a" summary.Obs.span_stats in
  check_int "a called twice" 2 stat.Obs.calls

(* ---------- deterministic merge across domains ---------- *)

(* The same fan-out recorded at PSM_JOBS=1 and PSM_JOBS=4 must merge to
   the same canonical summary (modulo wall-clock values): same counters,
   same per-name call counts, same event multiset. *)
let test_deterministic_merge_across_jobs () =
  let items = List.init 32 Fun.id in
  let record () =
    Obs.reset ();
    let results =
      Psm_par.parallel_map
        (fun i ->
          Obs.span "work.item" (fun () ->
              Obs.count "work.total" i;
              Obs.observe "work.size" (float_of_int i);
              i * i))
        items
    in
    (results, Obs.snapshot ())
  in
  with_recording @@ fun () ->
  let saved = Psm_par.default_jobs () in
  Fun.protect ~finally:(fun () -> Psm_par.set_jobs saved) @@ fun () ->
  Psm_par.set_jobs 1;
  let seq_results, seq = record () in
  Psm_par.set_jobs 4;
  let par_results, par = record () in
  Alcotest.(check (list int)) "results identical" seq_results par_results;
  Alcotest.(check (list (pair string (float 1e-9)))) "counters identical"
    seq.Obs.counters par.Obs.counters;
  check_int "same number of events" (List.length seq.Obs.events)
    (List.length par.Obs.events);
  Alcotest.(check (list string)) "same event names in canonical order"
    (event_names seq) (event_names par);
  let calls (s : Obs.summary) =
    List.map (fun (name, (st : Obs.span_stat)) -> (name, st.Obs.calls)) s.Obs.span_stats
  in
  Alcotest.(check (list (pair string int))) "same call counts" (calls seq) (calls par);
  let hist (s : Obs.summary) =
    List.map
      (fun (name, (h : Obs.hist_stat)) -> (name, (h.Obs.n, h.Obs.mean)))
      s.Obs.histograms
  in
  Alcotest.(check (list (pair string (pair int (float 1e-9)))))
    "same histograms" (hist seq) (hist par);
  (* Canonical event order: non-decreasing start times. *)
  let rec monotone = function
    | (a : Obs.span_event) :: (b :: _ as rest) ->
        a.Obs.start_us <= b.Obs.start_us && monotone rest
    | _ -> true
  in
  check_bool "events sorted by start time" true (monotone par.Obs.events)

(* ---------- the disabled sink is free ---------- *)

(* Instrumented computations must be bit-identical with the sink disabled
   and with it enabled: recording may cost time but never perturbs
   results. (The disabled path is the default for every run, so this is
   the "uninstrumented-equivalent" guarantee.) *)
let qcheck_disabled_sink_bit_identical =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"sink state never changes results"
       QCheck.(pair (list_of_size Gen.(int_range 1 40) (int_bound 1000)) small_int)
       (fun (values, salt) ->
         let compute () =
           Obs.span "q.outer" (fun () ->
               let total =
                 List.fold_left
                   (fun acc v ->
                     Obs.incr "q.iterations";
                     Obs.span "q.step" (fun () ->
                         acc +. (float_of_int v *. 1.25) +. float_of_int salt))
                   0. values
               in
               Obs.observe "q.total" total;
               total)
         in
         Obs.disable ();
         Obs.reset ();
         let disabled = compute () in
         Obs.enable ();
         let enabled =
           Fun.protect compute ~finally:(fun () ->
               Obs.disable ();
               Obs.reset ())
         in
         (* Bit-identical, not approximately equal. *)
         Int64.equal (Int64.bits_of_float disabled) (Int64.bits_of_float enabled)))

let test_disabled_sink_records_nothing () =
  Obs.disable ();
  Obs.reset ();
  ignore (Obs.span "ghost" (fun () -> Obs.count "ghost.counter" 7));
  let summary = Obs.snapshot () in
  check_int "no events" 0 (List.length summary.Obs.events);
  check_int "no counters" 0 (List.length summary.Obs.counters)

(* The disabled sink costs one atomic load and a branch per
   instrumentation hit, so its share of a run is bounded by how often a
   run hits it. Count the hits of a real training run deterministically
   instead of timing the guard: one per span event, one per
   [hmm.rows_normalized] bump (it counts calls), and one per other
   counter name (bumped about once per phase). At a few ns per hit, one
   hit per 100 training cycles stays far below 1 % of a training run
   that costs microseconds per cycle; a span or counter in a per-sample
   or per-run loop breaks the bound by orders of magnitude. *)
let test_instrumentation_hits_per_cycle () =
  let ips =
    [ ("RAM", Psm_ips.Ram.create); ("MultSum", Psm_ips.Multsum.create);
      ("AES", Psm_ips.Aes.create); ("Camellia", Psm_ips.Camellia.create) ]
  in
  let saved = Psm_par.default_jobs () in
  Fun.protect ~finally:(fun () -> Psm_par.set_jobs saved) @@ fun () ->
  List.iter
    (fun jobs ->
      Psm_par.set_jobs jobs;
      List.iter
        (fun (name, make) ->
          let suite =
            Psm_ips.Workloads.suite
              ~total_length:(Psm_ips.Workloads.paper_short_length name) ~long:false
              name
          in
          let cycles = List.fold_left (fun acc s -> acc + Array.length s) 0 suite in
          let summary =
            with_recording @@ fun () ->
            ignore (Psm_flow.Flow.train_on_ip (make ()) suite);
            Obs.snapshot ()
          in
          let rows_normalized =
            Option.value ~default:0.
              (List.assoc_opt "hmm.rows_normalized" summary.Obs.counters)
          in
          let hits =
            List.length summary.Obs.events
            + int_of_float rows_normalized
            + List.length summary.Obs.counters
          in
          if hits * 100 > cycles then
            Alcotest.failf "%s at jobs=%d: %d instrumentation hits for %d cycles" name
              jobs hits cycles)
        ips)
    [ 1; 4 ]

(* ---------- Chrome trace-event export ---------- *)

let test_chrome_trace_schema () =
  with_recording @@ fun () ->
  Obs.span "phase.a" (fun () -> Obs.span "phase.a.inner" (fun () -> ()));
  Obs.span "phase.b" (fun () -> ());
  Obs.count "things" 3;
  let parsed = J.of_string (Obs.to_chrome (Obs.snapshot ())) in
  let events = J.to_list (J.member "traceEvents" parsed) in
  check_bool "has events" true (events <> []);
  List.iter
    (fun e ->
      let ph = J.to_string (J.member "ph" e) in
      ignore (J.to_string (J.member "name" e));
      ignore (J.to_int (J.member "pid" e));
      ignore (J.to_int (J.member "tid" e));
      match ph with
      | "X" ->
          check_bool "ts >= 0" true (J.to_float (J.member "ts" e) >= 0.);
          check_bool "dur >= 0" true (J.to_float (J.member "dur" e) >= 0.)
      | "M" ->
          Alcotest.(check string) "metadata is thread_name" "thread_name"
            (J.to_string (J.member "name" e));
          ignore (J.to_string (J.member "name" (J.member "args" e)))
      | "C" -> check_bool "counter has args" true (J.mem_opt "args" e <> None)
      | other -> Alcotest.failf "unexpected phase %S" other)
    events;
  let xs =
    List.filter (fun e -> J.to_string (J.member "ph" e) = "X") events
  in
  check_int "one X event per span" 3 (List.length xs);
  (* ts is rebased: the earliest complete event starts at 0. *)
  let min_ts =
    List.fold_left (fun acc e -> Float.min acc (J.to_float (J.member "ts" e))) infinity xs
  in
  Alcotest.(check (float 1e-9)) "rebased to zero" 0. min_ts;
  let cs = List.filter (fun e -> J.to_string (J.member "ph" e) = "C") events in
  check_int "one counter event" 1 (List.length cs)

let test_chrome_file_and_json_file () =
  with_recording @@ fun () ->
  Obs.span "file.span" (fun () -> ());
  let chrome = Filename.temp_file "obs" ".chrome.json" in
  let plain = Filename.temp_file "obs" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove chrome;
      Sys.remove plain)
    (fun () ->
      Obs.write_chrome_file chrome;
      Obs.write_json_file plain;
      let c = J.of_file chrome in
      check_bool "chrome parses" true (J.to_list (J.member "traceEvents" c) <> []);
      let p = J.of_file plain in
      check_bool "json has spans" true (J.mem_opt "spans" p <> None))

let test_text_summary_mentions_spans () =
  with_recording @@ fun () ->
  Obs.span "visible.name" (fun () -> ());
  Obs.count "visible.counter" 2;
  let text = Obs.to_text (Obs.snapshot ()) in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  check_bool "span name shown" true (contains text "visible.name");
  check_bool "counter shown" true (contains text "visible.counter")

let suite =
  ( "obs",
    [ Alcotest.test_case "span returns value" `Quick test_span_returns_value;
      Alcotest.test_case "nesting depth" `Quick test_span_nesting_depth;
      Alcotest.test_case "balance and containment" `Quick
        test_span_balance_and_containment;
      Alcotest.test_case "closes on exception" `Quick test_span_closes_on_exception;
      Alcotest.test_case "counters and histograms" `Quick test_counters_and_histograms;
      Alcotest.test_case "reset clears" `Quick test_reset_clears;
      Alcotest.test_case "span totals" `Quick test_span_totals;
      Alcotest.test_case "deterministic merge across jobs" `Quick
        test_deterministic_merge_across_jobs;
      qcheck_disabled_sink_bit_identical;
      Alcotest.test_case "disabled sink records nothing" `Quick
        test_disabled_sink_records_nothing;
      Alcotest.test_case "instrumentation hits per training cycle" `Slow
        test_instrumentation_hits_per_cycle;
      Alcotest.test_case "chrome trace schema" `Quick test_chrome_trace_schema;
      Alcotest.test_case "chrome + json files" `Quick test_chrome_file_and_json_file;
      Alcotest.test_case "text summary" `Quick test_text_summary_mentions_spans ] )
