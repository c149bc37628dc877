(* One fork-join per call: [parallel_map] spawns its helper domains, the
   helpers and the caller claim tasks through one atomic cursor until the
   tasks run out, and the helpers are joined before the call returns.
   Nothing outlives a call, so there is no pool to create, resize or shut
   down. Spawning costs about 0.15 ms per call on a 2-vCPU host, noise
   next to the seconds a paper-table cell costs.

   The width never exceeds what the machine can run: requested jobs beyond
   [recommended_domains ()] add stop-the-world GC synchronization latency
   without adding compute (4 domains on a 1-core box ran the Table-II
   fan-out at 0.26x the sequential speed). *)

(* True on every domain taking part in a fan-out, the caller included:
   a call made from inside one runs as [List.map], because the outer
   fan-out already owns every usable core. *)
let in_fanout : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* [Domain.recommended_domain_count] respects the process CPU affinity
   mask on Linux, so a cgroup-pinned container reports its allowance. *)
let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let jobs_override = ref None

let default_jobs () =
  match !jobs_override with
  | Some n -> n
  | None -> (
      match Option.bind (Sys.getenv_opt "PSM_JOBS") (fun s -> int_of_string_opt (String.trim s)) with
      | Some n -> max 1 n
      | None -> recommended_domains ())

let set_jobs n = jobs_override := Some (max 1 n)

(* Claiming schedule (slot -> task index): heaviest first, ties by
   ascending index, the longest-processing-time heuristic. *)
let lpt_order costs =
  let order = Array.init (Array.length costs) Fun.id in
  Array.stable_sort (fun i j -> Float.compare costs.(j) costs.(i)) order;
  order

let parallel_map ?cost f xs =
  let width = min (default_jobs ()) (recommended_domains ()) in
  match xs with
  | [] | [ _ ] -> List.map f xs
  | _ when width <= 1 || Domain.DLS.get in_fanout -> List.map f xs
  | _ ->
      let tasks = Array.of_list xs in
      let n = Array.length tasks in
      let task =
        match cost with
        | None -> Fun.id
        | Some cost -> Array.get (lpt_order (Array.map cost tasks))
      in
      let results = Array.make n None in
      let cursor = Atomic.make 0 in
      let rec work () =
        let slot = Atomic.fetch_and_add cursor 1 in
        if slot < n then begin
          let i = task slot in
          results.(i) <-
            Some (try Ok (f tasks.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()));
          work ()
        end
      in
      let helper () = Domain.DLS.set in_fanout true; work () in
      let helpers = ref [] in
      Domain.DLS.set in_fanout true;
      Fun.protect
        ~finally:(fun () ->
          List.iter Domain.join !helpers;
          Domain.DLS.set in_fanout false)
        (fun () ->
          for _ = 2 to min width n do helpers := Domain.spawn helper :: !helpers done;
          work ());
      (* In index order, so the lowest-index exception is the one raised. *)
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
             | None -> assert false)
           results)
