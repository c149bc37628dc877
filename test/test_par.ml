(* Tests for Psm_par — the domain pool behind the experiment fan-out:
   ordered results, the lowest-index exception, nesting, the hardware
   clamp and the cost-weighted schedule. *)

module Par = Psm_par

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A shared wide pool: the machine may have a single core, but domains
   still interleave, which is exactly what the determinism tests need —
   hence [~oversubscribe:true], which bypasses the hardware clamp. *)
let pool4 = lazy (Par.Pool.create ~oversubscribe:true ~jobs:4 ())
let pool1 = lazy (Par.Pool.create ~jobs:1 ())

(* ---------- pool mechanics ---------- *)

let test_map_order () =
  let xs = List.init 500 Fun.id in
  Alcotest.(check (list int))
    "ordered" (List.map (fun x -> x * x) xs)
    (Par.parallel_map ~pool:(Lazy.force pool4) (fun x -> x * x) xs)

let test_jobs1_equals_sequential () =
  let xs = List.init 200 (fun i -> i * 3) in
  Alcotest.(check (list int))
    "jobs=1" (List.map succ xs)
    (Par.parallel_map ~pool:(Lazy.force pool1) succ xs)

let test_exception_propagation () =
  Alcotest.check_raises "lowest-index exception" (Failure "boom 37") (fun () ->
      ignore
        (Par.parallel_map ~pool:(Lazy.force pool4)
           (fun x ->
             if x = 37 || x = 101 then failwith (Printf.sprintf "boom %d" x) else x)
           (List.init 200 Fun.id)))

let test_exception_leaves_pool_usable () =
  let pool = Lazy.force pool4 in
  (try
     ignore (Par.parallel_map ~pool (fun _ -> failwith "die") (List.init 50 Fun.id))
   with Failure _ -> ());
  Alcotest.(check (list int))
    "pool survives" [ 2; 4; 6 ]
    (Par.parallel_map ~pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_pool_lifecycle () =
  let pool = Par.Pool.create ~oversubscribe:true ~jobs:3 () in
  check_int "jobs" 3 (Par.Pool.jobs pool);
  check_int "parallelism" 3 (Par.Pool.parallelism pool);
  Alcotest.(check (list int))
    "usable" [ 1; 4; 9; 16 ]
    (Par.parallel_map ~pool (fun x -> x * x) [ 1; 2; 3; 4 ]);
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  (* Idempotent. *)
  Alcotest.check_raises "dead pool rejected"
    (Invalid_argument "Psm_par.Pool: pool is shut down") (fun () ->
      ignore (Par.parallel_map ~pool (fun x -> x) (List.init 10 Fun.id)))

let test_nested_calls () =
  (* Nested parallel calls from worker tasks run sequentially instead of
     deadlocking; the fan-out still returns correct ordered results. *)
  let outer = List.init 8 Fun.id in
  let expected =
    List.map (fun i -> List.fold_left ( + ) 0 (List.init 100 (fun j -> i + j))) outer
  in
  Alcotest.(check (list int))
    "nested" expected
    (Par.parallel_map ~pool:(Lazy.force pool4)
       (fun i ->
         List.fold_left ( + ) 0
           (Par.parallel_map ~pool:(Lazy.force pool4) (fun j -> i + j)
              (List.init 100 Fun.id)))
       outer)

let test_default_jobs_env () =
  check_bool "positive" true (Par.default_jobs () >= 1);
  (* The global fan-outs never spawn more domains than the hardware
     offers, whatever PSM_JOBS asks for. *)
  check_bool "global pool clamped" true
    (Par.Pool.parallelism (Par.get_pool ()) <= Par.recommended_domains ())

let test_hardware_clamp () =
  (* An absurd jobs request keeps its accounting value but the pool only
     spawns what the machine can run without GC-barrier thrashing. *)
  let pool = Par.Pool.create ~jobs:64 () in
  check_int "jobs preserved" 64 (Par.Pool.jobs pool);
  check_bool "parallelism clamped" true
    (Par.Pool.parallelism pool <= Par.recommended_domains ());
  Alcotest.(check (list int))
    "usable" [ 2; 3; 4 ]
    (Par.parallel_map ~pool succ [ 1; 2; 3 ]);
  Par.Pool.shutdown pool

let test_weighted_map_order () =
  (* LPT scheduling reorders how tasks are CLAIMED, never where results
     land; adversarially skewed costs must not perturb output order. *)
  let xs = List.init 300 Fun.id in
  let cost x =
    if x mod 17 = 0 then 1e6 else if x mod 2 = 0 then 0.001 else float_of_int x
  in
  Alcotest.(check (list int))
    "ordered"
    (List.map (fun x -> x * 3) xs)
    (Par.parallel_map_weighted ~pool:(Lazy.force pool4) ~cost (fun x -> x * 3) xs)

let test_weighted_exception_lowest_index () =
  (* The deterministic-exception contract survives the schedule
     permutation: the lowest INPUT index wins, not the first claimed. *)
  Alcotest.check_raises "lowest-index exception" (Failure "boom 11") (fun () ->
      ignore
        (Par.parallel_map_weighted ~pool:(Lazy.force pool4)
           ~cost:(fun x -> float_of_int (1000 - x))
           (fun x ->
             if x = 11 || x = 180 then failwith (Printf.sprintf "boom %d" x) else x)
           (List.init 200 Fun.id)))

let test_nested_no_oversubscription () =
  (* A nested fan-out (a parallel call made from inside a pool task) must
     not run on more distinct domains than the hardware recommends: inner calls from workers take the sequential path and
     the pool itself is clamped. *)
  let pool = Par.Pool.create ~jobs:4 () in
  let mu = Mutex.create () in
  let seen = Hashtbl.create 8 in
  let note () =
    Mutex.lock mu;
    Hashtbl.replace seen (Domain.self () :> int) ();
    Mutex.unlock mu
  in
  let outer = List.init 8 Fun.id in
  let expected =
    List.map (fun i -> List.fold_left ( + ) 0 (List.init 50 (fun j -> i + j))) outer
  in
  let got =
    Par.parallel_map ~pool
      (fun i ->
        note ();
        List.fold_left ( + ) 0
          (Par.parallel_map ~pool
             (fun j ->
               note ();
               i + j)
             (List.init 50 Fun.id)))
      outer
  in
  Alcotest.(check (list int)) "nested results" expected got;
  check_bool "distinct domains within hardware budget" true
    (Hashtbl.length seen <= Par.recommended_domains ());
  Par.Pool.shutdown pool

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
           let costs = Array.of_list (List.map snd tasks) in
           let xs = List.map fst tasks in
           let f x = (x * 7) + 1 in
           Par.parallel_map_weighted ~pool:(Lazy.force pool4)
             ~cost:(fun x ->
               (* Cost looked up by value is ambiguous under duplicates —
                  index the list positionally instead. *)
               ignore x;
               0.)
             f xs
           = List.map f xs
           && Par.parallel_map_weighted ~pool:(Lazy.force pool4)
                ~cost:(fun (i, _) -> costs.(i))
                (fun (_, x) -> f x)
                (List.mapi (fun i x -> (i, x)) xs)
              = List.map f xs)) ]

let suite =
  ( "par",
    [ Alcotest.test_case "map order" `Quick test_map_order;
      Alcotest.test_case "jobs=1 sequential" `Quick test_jobs1_equals_sequential;
      Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
      Alcotest.test_case "pool survives exception" `Quick test_exception_leaves_pool_usable;
      Alcotest.test_case "pool lifecycle" `Quick test_pool_lifecycle;
      Alcotest.test_case "nested calls" `Quick test_nested_calls;
      Alcotest.test_case "default jobs" `Quick test_default_jobs_env;
      Alcotest.test_case "hardware clamp" `Quick test_hardware_clamp;
      Alcotest.test_case "weighted map order" `Quick test_weighted_map_order;
      Alcotest.test_case "weighted exception lowest-index" `Quick
        test_weighted_exception_lowest_index;
      Alcotest.test_case "nested fan-out stays within domain budget" `Quick
        test_nested_no_oversubscription ]
    @ scheduler_properties )
