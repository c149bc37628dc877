(* Tests for Psm_par — the fork-join map behind the experiment fan-out:
   ordered results, the lowest-index exception, nesting, the hardware
   clamp and the cost-weighted schedule. The cases request 4 jobs; the
   granted width is clamped to the machine, so on a 1-core host they
   take the sequential path. *)

module Par = Psm_par

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_jobs n f =
  let saved = Par.default_jobs () in
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs saved) f

(* The distinct domains [f] ran on during a call to [run f]. *)
let domains_seen run =
  let mu = Mutex.create () in
  let seen = Hashtbl.create 8 in
  let note () =
    Mutex.lock mu;
    Hashtbl.replace seen (Domain.self () :> int) ();
    Mutex.unlock mu
  in
  let result = run note in
  (result, Hashtbl.fold (fun d () acc -> d :: acc) seen [])

(* ---------- fork-join mechanics ---------- *)

let test_map_order () =
  with_jobs 4 @@ fun () ->
  List.iter
    (fun n ->
      let xs = List.init n Fun.id in
      Alcotest.(check (list int))
        (Printf.sprintf "ordered (%d)" n)
        (List.map (fun x -> x * x) xs)
        (Par.parallel_map (fun x -> x * x) xs))
    [ 0; 1; 2; 3; 500 ]

let test_jobs1_equals_sequential () =
  with_jobs 1 @@ fun () ->
  let xs = List.init 200 (fun i -> i * 3) in
  let result, domains =
    domains_seen (fun note -> Par.parallel_map (fun x -> note (); succ x) xs)
  in
  Alcotest.(check (list int)) "jobs=1" (List.map succ xs) result;
  Alcotest.(check (list int)) "no domain spawned" [ (Domain.self () :> int) ] domains

let test_exception_propagation () =
  with_jobs 4 @@ fun () ->
  Alcotest.check_raises "lowest-index exception" (Failure "boom 37") (fun () ->
      ignore
        (Par.parallel_map
           (fun x ->
             if x = 37 || x = 101 then failwith (Printf.sprintf "boom %d" x) else x)
           (List.init 200 Fun.id)))

let test_next_call_after_exception () =
  (* Every helper is joined even when a task raises: repeated failing
     calls leave nothing behind, and the next call returns in order. *)
  with_jobs 4 @@ fun () ->
  for _ = 1 to 20 do
    try ignore (Par.parallel_map (fun _ -> failwith "die") (List.init 50 Fun.id))
    with Failure _ -> ()
  done;
  Alcotest.(check (list int))
    "next call" (List.init 50 (fun x -> 2 * x))
    (Par.parallel_map (fun x -> 2 * x) (List.init 50 Fun.id))

let test_nested_calls () =
  (* Nested calls run as List.map inside the fan-out; the results are
     still correct and ordered. *)
  with_jobs 4 @@ fun () ->
  let outer = List.init 8 Fun.id in
  let expected =
    List.map (fun i -> List.fold_left ( + ) 0 (List.init 100 (fun j -> i + j))) outer
  in
  Alcotest.(check (list int))
    "nested" expected
    (Par.parallel_map
       (fun i ->
         List.fold_left ( + ) 0 (Par.parallel_map (fun j -> i + j) (List.init 100 Fun.id)))
       outer)

let test_default_jobs_env () =
  with_jobs 3 @@ fun () ->
  check_int "override" 3 (Par.default_jobs ());
  Par.set_jobs 0;
  check_int "clamped to 1" 1 (Par.default_jobs ())

let test_hardware_clamp () =
  (* An absurd request runs on no more domains than the machine offers. *)
  with_jobs 64 @@ fun () ->
  check_int "request kept" 64 (Par.default_jobs ());
  let result, domains =
    domains_seen (fun note -> Par.parallel_map (fun x -> note (); succ x) (List.init 200 Fun.id))
  in
  Alcotest.(check (list int)) "results" (List.init 200 succ) result;
  check_bool "distinct domains within hardware budget" true
    (List.length domains <= Par.recommended_domains ())

let test_weighted_map_order () =
  (* LPT scheduling reorders how tasks are CLAIMED, never where results
     land; adversarially skewed costs must not perturb output order. *)
  with_jobs 4 @@ fun () ->
  let xs = List.init 300 Fun.id in
  let cost x =
    if x mod 17 = 0 then 1e6 else if x mod 2 = 0 then 0.001 else float_of_int x
  in
  Alcotest.(check (list int))
    "ordered"
    (List.map (fun x -> x * 3) xs)
    (Par.parallel_map ~cost (fun x -> x * 3) xs)

let test_weighted_exception_lowest_index () =
  (* The deterministic-exception contract survives the schedule
     permutation: the lowest INPUT index wins, not the first claimed. *)
  with_jobs 4 @@ fun () ->
  Alcotest.check_raises "lowest-index exception" (Failure "boom 11") (fun () ->
      ignore
        (Par.parallel_map
           ~cost:(fun x -> float_of_int (1000 - x))
           (fun x ->
             if x = 11 || x = 180 then failwith (Printf.sprintf "boom %d" x) else x)
           (List.init 200 Fun.id)))

let test_nested_no_oversubscription () =
  (* A nested fan-out must not run on more distinct domains than the
     hardware recommends: inner calls take the sequential path and the
     outer one is clamped. *)
  with_jobs 4 @@ fun () ->
  let outer = List.init 8 Fun.id in
  let expected =
    List.map (fun i -> List.fold_left ( + ) 0 (List.init 50 (fun j -> i + j))) outer
  in
  let got, domains =
    domains_seen (fun note ->
        Par.parallel_map
          (fun i ->
            note ();
            List.fold_left ( + ) 0
              (Par.parallel_map (fun j -> note (); i + j) (List.init 50 Fun.id)))
          outer)
  in
  Alcotest.(check (list int)) "nested results" expected got;
  check_bool "distinct domains within hardware budget" true
    (List.length domains <= Par.recommended_domains ())

(* ---------- the cost-weighted schedule ---------- *)

(* Adversarially skewed task costs: huge outliers, zeros, ties and a
   pathological all-equal tail. The weighted map must still agree with
   List.map elementwise. *)
let arb_weighted_tasks =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 400)
        (pair (int_bound 1_000)
           (oneof
              [ float_range 0. 1e6; return 0.; return 1e12; return 1.;
                float_range 0. 1e-9 ])))

let scheduler_properties =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:50 ~name:"weighted map = sequential on skewed costs"
         arb_weighted_tasks (fun tasks ->
           with_jobs 4 @@ fun () ->
           let costs = Array.of_list (List.map snd tasks) in
           let xs = List.map fst tasks in
           let f x = (x * 7) + 1 in
           Par.parallel_map ~cost:(fun _ -> 0.) f xs = List.map f xs
           (* Cost looked up by value is ambiguous under duplicates —
              index the list positionally instead. *)
           && Par.parallel_map
                ~cost:(fun (i, _) -> costs.(i))
                (fun (_, x) -> f x)
                (List.mapi (fun i x -> (i, x)) xs)
              = List.map f xs)) ]

let suite =
  ( "par",
    [ Alcotest.test_case "map order" `Quick test_map_order;
      Alcotest.test_case "jobs=1 sequential" `Quick test_jobs1_equals_sequential;
      Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
      Alcotest.test_case "next call after exception" `Quick test_next_call_after_exception;
      Alcotest.test_case "nested calls" `Quick test_nested_calls;
      Alcotest.test_case "default jobs" `Quick test_default_jobs_env;
      Alcotest.test_case "hardware clamp" `Quick test_hardware_clamp;
      Alcotest.test_case "weighted map order" `Quick test_weighted_map_order;
      Alcotest.test_case "weighted exception lowest-index" `Quick
        test_weighted_exception_lowest_index;
      Alcotest.test_case "nested fan-out stays within domain budget" `Quick
        test_nested_no_oversubscription ]
    @ scheduler_properties )
