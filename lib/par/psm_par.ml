(* A work-sharing domain pool with an adaptive scheduler. One [batch] is
   submitted per parallel call; workers and the submitting caller race
   over the batch's schedule slots via an atomic cursor, so no per-task
   queueing or locking happens on the hot path — the atomic cursor IS the
   dynamic work queue: whichever domain is free claims the next slot, so
   load balances itself even when task costs are wildly skewed. A batch
   may carry a schedule permutation (cost-weighted ordering: heaviest
   tasks first, the classic longest-processing-time heuristic), which
   changes only the claiming order, never where results land.

   The pool never spawns more domains than the machine can actually run:
   requested jobs beyond [recommended_domains ()] add stop-the-world GC
   synchronization latency without adding compute (a 4-domain pool on a
   1-core box ran the Table-II fan-out at 0.26x the sequential speed),
   so [Pool.create] clamps. [~oversubscribe:true] disables the clamp for
   determinism tests that need real domain interleaving on small
   machines. *)

(* True on domains spawned by a pool: nested parallel calls from worker
   tasks run sequentially instead of deadlocking on a saturated pool —
   the outer fan-out already owns every usable core, so granting domains
   to an inner call could only oversubscribe. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* The honest hardware probe: how many domains can make progress at
   once. [Domain.recommended_domain_count] respects the process CPU
   affinity mask on Linux, so a cgroup-pinned container reports its real
   allowance, not the host's core count. *)
let recommended_domains () = max 1 (Domain.recommended_domain_count ())

module Pool = struct
  type batch = {
    run : int -> unit; (* never raises; exceptions are captured by callers *)
    size : int;
    order : int array option; (* schedule slot -> task index; None = identity *)
    cursor : int Atomic.t; (* next unclaimed schedule slot *)
    mutable pending : int; (* guarded by the pool mutex *)
    finished : Condition.t; (* signalled when [pending] reaches 0 *)
  }

  let task_of_slot b slot =
    match b.order with None -> slot | Some order -> order.(slot)

  type t = {
    mutex : Mutex.t;
    work : Condition.t;
    mutable queue : batch list; (* FIFO of batches with unclaimed tasks *)
    mutable stop : bool;
    mutable domains : unit Domain.t list;
    jobs : int; (* requested width *)
    parallelism : int; (* granted width: 1 + spawned domains *)
  }

  let jobs t = t.jobs
  let parallelism t = t.parallelism

  (* With the mutex held: claim a schedule slot, dropping exhausted
     batches from the queue, or block until work arrives or the pool
     stops. *)
  let rec claim t =
    match t.queue with
    | [] -> if t.stop then None else begin Condition.wait t.work t.mutex; claim t end
    | b :: rest ->
        let i = Atomic.fetch_and_add b.cursor 1 in
        if i < b.size then Some (b, i)
        else begin
          t.queue <- rest;
          claim t
        end

  let finish_task t b =
    Mutex.lock t.mutex;
    b.pending <- b.pending - 1;
    if b.pending = 0 then Condition.broadcast b.finished;
    Mutex.unlock t.mutex

  let worker t () =
    Domain.DLS.set in_worker true;
    let rec loop () =
      Mutex.lock t.mutex;
      match claim t with
      | None -> Mutex.unlock t.mutex
      | Some (b, slot) ->
          Mutex.unlock t.mutex;
          b.run (task_of_slot b slot);
          finish_task t b;
          loop ()
    in
    loop ()

  let create ?(oversubscribe = false) ~jobs () =
    let jobs = max 1 jobs in
    let parallelism = if oversubscribe then jobs else min jobs (recommended_domains ()) in
    let t =
      { mutex = Mutex.create ();
        work = Condition.create ();
        queue = [];
        stop = false;
        domains = [];
        jobs;
        parallelism }
    in
    t.domains <- List.init (parallelism - 1) (fun _ -> Domain.spawn (worker t));
    t

  let check_alive t = if t.stop then invalid_arg "Psm_par.Pool: pool is shut down"

  let shutdown t =
    Mutex.lock t.mutex;
    let was_stopped = t.stop in
    t.stop <- true;
    Condition.broadcast t.work;
    let domains = t.domains in
    t.domains <- [];
    Mutex.unlock t.mutex;
    if not was_stopped then List.iter Domain.join domains

  (* Run [size] tasks to completion, claiming in [order] if given. The
     caller participates: it claims slots alongside the workers, then
     blocks until in-flight tasks finish. Safe to call with batches
     already queued (nested submission from the caller's domain): the
     caller drains its own batch. *)
  let run_batch ?order t ~size run =
    if size > 0 then begin
      let b =
        { run;
          size;
          order;
          cursor = Atomic.make 0;
          pending = size;
          finished = Condition.create () }
      in
      Mutex.lock t.mutex;
      check_alive t;
      t.queue <- t.queue @ [ b ];
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      let continue = ref true in
      while !continue do
        let slot = Atomic.fetch_and_add b.cursor 1 in
        if slot < size then begin
          run (task_of_slot b slot);
          finish_task t b
        end
        else continue := false
      done;
      Mutex.lock t.mutex;
      (* The batch is exhausted; drop it if a worker has not already. *)
      t.queue <- List.filter (fun b' -> b' != b) t.queue;
      while b.pending > 0 do
        Condition.wait b.finished t.mutex
      done;
      Mutex.unlock t.mutex
    end
end

(* ---------- the global pool ---------- *)

let jobs_override = ref None

let env_jobs () =
  match Sys.getenv_opt "PSM_JOBS" with
  | None -> None
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n -> Some (max 1 n)
    | None -> None)

let default_jobs () =
  match !jobs_override with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> recommended_domains ())

let global : Pool.t option ref = ref None
let global_mutex = Mutex.create ()
let exit_hook_installed = ref false

let shutdown_global () =
  Mutex.lock global_mutex;
  let pool = !global in
  global := None;
  Mutex.unlock global_mutex;
  Option.iter Pool.shutdown pool

let get_pool () =
  Mutex.lock global_mutex;
  let pool =
    match !global with
    | Some p -> p
    | None ->
        let p = Pool.create ~jobs:(default_jobs ()) () in
        global := Some p;
        if not !exit_hook_installed then begin
          exit_hook_installed := true;
          at_exit shutdown_global
        end;
        p
  in
  Mutex.unlock global_mutex;
  pool

let set_jobs n =
  jobs_override := Some (max 1 n);
  shutdown_global ()

(* ---------- parallel combinators ---------- *)

let resolve = function Some pool -> pool | None -> get_pool ()

(* Evaluate [f i] for every i in [0, n), in parallel, storing results in
   order and re-raising the lowest-index exception as the sequential run
   would have. [order], when given, is the claiming schedule (slot ->
   task index); it affects wall-clock only, never results. *)
let run_indexed ?order pool n (f : int -> 'b) : 'b array =
  let results : 'b option array = Array.make n None in
  let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
  Pool.run_batch ?order pool ~size:n (fun i ->
      match f i with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors;
  Array.map (function Some v -> v | None -> assert false) results

let sequential pool = Pool.parallelism pool <= 1 || Domain.DLS.get in_worker

(* Schedule permutation for cost-weighted batches: heaviest first, ties
   by ascending index (so the schedule — like everything else here — is
   deterministic). *)
let lpt_order costs =
  let n = Array.length costs in
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let d = Float.compare costs.(j) costs.(i) in
      if d <> 0 then d else Int.compare i j)
    order;
  order

let parallel_map ?pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let pool = resolve pool in
      if sequential pool then List.map f xs
      else begin
        let arr = Array.of_list xs in
        Array.to_list (run_indexed pool (Array.length arr) (fun i -> f arr.(i)))
      end

let parallel_map_weighted ?pool ~cost f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let pool = resolve pool in
      if sequential pool then List.map f xs
      else begin
        let arr = Array.of_list xs in
        let order = lpt_order (Array.map cost arr) in
        Array.to_list
          (run_indexed ~order pool (Array.length arr) (fun i -> f arr.(i)))
      end
