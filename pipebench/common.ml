(* Shared plumbing of the pipeline benchmark: the IP roster, seed
   derivation, self-check accounting, per-layer timing and the summary
   statistics printed beside every metric. *)

let now = Unix.gettimeofday

(* ---------- IPs and seeds ---------- *)

let ips = [ "RAM"; "MultSum"; "AES"; "Camellia" ]

let ip_create = function
  | "RAM" -> Psm_ips.Ram.create ()
  | "MultSum" -> Psm_ips.Multsum.create ()
  | "AES" -> Psm_ips.Aes.create ()
  | "Camellia" -> Psm_ips.Camellia.create ()
  | name -> invalid_arg ("pipebench: unknown IP " ^ name)

let ip_index name =
  let rec go i = function
    | [] -> invalid_arg ("pipebench: unknown IP " ^ name)
    | n :: rest -> if n = name then i else go (i + 1) rest
  in
  go 0 ips

(* Every stimulus seed is [seed] in the high bits and a (role, IP, part)
   tag in the low 20, so training, held-out and serving data never share
   a seed, whatever the workload seed is. *)
type role = Train | Heldout | Serve_train | Serve_heldout | Serve_plan

let role_code = function
  | Train -> 1
  | Heldout -> 2
  | Serve_train -> 3
  | Serve_heldout -> 4
  | Serve_plan -> 5

let stimulus_seed ~seed ~role ~ip ~part =
  Int64.logor
    (Int64.shift_left (Int64.of_int seed) 20)
    (Int64.of_int ((role_code role lsl 12) lor (ip_index ip lsl 8) lor part))

let generator ~long name =
  let module W = Psm_ips.Workloads in
  match (name, long) with
  | "RAM", false -> W.ram_short
  | "RAM", true -> W.ram_long
  | "MultSum", false -> W.multsum_short
  | "MultSum", true -> W.multsum_long
  | "AES", false -> W.aes_short
  | "AES", true -> W.aes_long
  | "Camellia", false -> W.camellia_short
  | "Camellia", true -> W.camellia_long
  | _ -> invalid_arg ("pipebench: unknown IP " ^ name)

(* A four-testbench suite like [Workloads.suite], seeded by role. *)
let suite ~seed ~role ~long ~total name =
  let parts = 4 in
  let base = total / parts in
  List.init parts (fun k ->
      let length = if k = parts - 1 then total - (base * (parts - 1)) else base in
      generator ~long name ~length ~seed:(stimulus_seed ~seed ~role ~ip:name ~part:k) ())

(* ---------- self-checks ---------- *)

(* The domain-pool size of every run. On a 2-vCPU host, two domains
   doubled the pass-to-pass spread (stop-the-world minor collections wait
   for the slower vCPU) and did not raise serve throughput. One domain
   also makes allocation counts repeat exactly. *)
let jobs = 1

let attempted = ref 0
let failed = ref 0
let rejected = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "FAIL: %s\n%!" what
  end

let fail what = check what false

(* An operation that returns [Error] counts as failed (a rejected engine
   call); the value is returned for the caller to use. *)
let expect what = function
  | Ok v ->
      incr attempted;
      Some v
  | Error e ->
      incr rejected;
      fail (Printf.sprintf "%s: %s" what e);
      None

(* ---------- per-layer timing ---------- *)

(* The traced run wraps calls into each layer's public functions; the
   untraced run calls them directly, so tracing costs nothing there. *)
module Layers = struct
  let tracing = ref false
  let counting_alloc = ref false
  let values : (string, float) Hashtbl.t = Hashtbl.create 64

  let add name v =
    Hashtbl.replace values name
      (v +. Option.value ~default:0. (Hashtbl.find_opt values name))

  let set name v = Hashtbl.replace values name v
  let get name = Option.value ~default:0. (Hashtbl.find_opt values name)
  let reset () = Hashtbl.reset values

  (* Words allocated so far on this domain (minor plus direct major). *)
  let alloc_words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted

  (* What one pair of [alloc_words] calls allocates itself. *)
  let alloc_overhead =
    lazy
      (let a = alloc_words () in
       let b = alloc_words () in
       b -. a)

  (* [time name f] adds the seconds spent in [f] to [name]. While
     allocation is counted it times nothing and adds the words [f]
     allocated to [alloc] instead. *)
  let time ?alloc name f =
    if not !tracing then f ()
    else if !counting_alloc then begin
      let w0 = alloc_words () in
      let r = f () in
      let w1 = alloc_words () in
      Option.iter (fun a -> add a (w1 -. w0 -. Lazy.force alloc_overhead)) alloc;
      r
    end
    else begin
      let t0 = now () in
      let r = f () in
      add name (now () -. t0);
      r
    end
end

(* ---------- statistics ---------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)]. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q p =
      let m = float_of_int (n + 1) *. p in
      let j = max 1 (min (n - 1) (int_of_float m)) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))
    in
    (q 0.25, q 0.75)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (int_of_float (p *. float_of_int n)))

let ratio a b = if b = 0. then 0. else a /. b

(* The whole-run figures of a traced run: the share of the last traced
   pass's wall clock that no layer in [attributed] accounts for, the
   tracing overhead against the untraced passes, and the ratios derived
   from counts the layers recorded. *)
let summarize_traced ~wall ~traced_walls ~untraced_walls ~attributed =
  let covered = List.fold_left (fun a k -> a +. Layers.get k) 0. attributed in
  Layers.set "unattributed_frac" (1. -. (covered /. wall));
  Layers.set "tracing_overhead_frac" ((median traced_walls /. median untraced_walls) -. 1.);
  Layers.set "trace.ingest_mb_per_s"
    (ratio (Layers.get "trace.bytes" /. 1048576.) (Layers.get "trace.ingest_s"));
  Layers.set "trace.runs_per_cycle" (ratio (Layers.get "trace.runs") (Layers.get "trace.cycles"));
  Layers.set "hmm.wsp" (ratio (Layers.get "hmm.wrong_instants") (Layers.get "hmm.sim_cycles"));
  Layers.set "hmm.estimate_cycles_per_s"
    (ratio (Layers.get "hmm.sim_cycles") (Layers.get "hmm.simulate_s"))

(* Re-run [f] with allocation counting on and record words per cycle for
   mining and hmm; the other per-layer values of the traced passes are
   kept. *)
let record_alloc_per_cycle f =
  let kept = Hashtbl.copy Layers.values in
  Layers.reset ();
  Layers.counting_alloc := true;
  f ();
  Layers.counting_alloc := false;
  let per_cycle layer =
    ratio (Layers.get (layer ^ ".alloc_words")) (Layers.get (layer ^ ".cycles"))
  in
  let mining = per_cycle "mining" and hmm = per_cycle "hmm" in
  Layers.reset ();
  Hashtbl.iter (Hashtbl.replace Layers.values) kept;
  Layers.set "mining.alloc_words_per_cycle" mining;
  Layers.set "hmm.alloc_words_per_cycle" hmm

(* Print one metric (by default the median of [xs], its per-pass values)
   with the pass count and the spread of [xs] beside it. *)
let report_metric ?value name unit xs =
  let value = match value with Some v -> v | None -> median xs in
  Printf.printf "  %-28s %14.6g %-9s (%d passes, spread %.1f%%)\n%!" name value unit
    (List.length xs) (100. *. spread xs)

(* Read right after the warm-up pass: the peak of one pass of the
   workload, whatever number of timed passes the host speed allows. *)
let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(* ---------- host speed ---------- *)

(* The 2-vCPU development host's speed drifts: the same binary ran passes
   in 2.8 s and, a minute later, in 5.4 s (README.md, "Host speed"). A
   fixed probe that shares no code with the program, timed between passes,
   measures the host's speed at the time. It runs three kernels: one
   compute-bound, one bound by DRAM latency, one by allocation into a
   cache-sized hash table. Their sum slowed down in step with paper-train
   and serve-fleet (log-log slope 1.09 and 0.95). *)
module Host = struct
  let compute () =
    let x = ref 0x12345 and y = ref 1.0 in
    for i = 1 to 20_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      y := (!y *. 1.0000001) +. float_of_int (i land 7)
    done;
    !x + int_of_float !y

  (* A single random cycle (Sattolo's shuffle) through 64 MiB, kept
     outside the OCaml heap so peak_heap_mb does not see it. *)
  let chain =
    lazy
      (let n = 1 lsl 23 in
       let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
       for i = 0 to n - 1 do
         a.{i} <- i
       done;
       let rng = Random.State.make [| 7 |] in
       for i = n - 1 downto 1 do
         let j = Random.State.int rng i in
         let t = a.{i} in
         a.{i} <- a.{j};
         a.{j} <- t
       done;
       a)

  let memory () =
    let a = Lazy.force chain in
    let j = ref 0 in
    for _ = 1 to 1_000_000 do
      j := a.{!j}
    done;
    !j

  let alloc () =
    let size = 1 lsl 18 in
    let table = Hashtbl.create size in
    for r = 0 to 3 do
      List.iter
        (fun (k, v) -> Hashtbl.replace table (k land (size - 1)) (v, k))
        (List.init 100_000 (fun i -> ((i * 7919) + r, float_of_int i)))
    done;
    Hashtbl.length table

  (* Seconds one probe takes. *)
  let probe () =
    ignore (Lazy.force chain);
    let t0 = now () in
    ignore (Sys.opaque_identity (compute () + memory () + alloc ()));
    now () -. t0

  (* What [probe] took on the development host at its usual speed. *)
  let reference_s = 0.43
end

(* Run [pass] until [seconds] have elapsed, at least twice. Returns each
   pass's result with its host-speed scale: [Host.reference_s] over the
   mean of the probes timed just before and just after the pass. A time
   multiplied by the scale is the time the pass would have taken on the
   host at its reference speed. Each pass starts on a compacted heap, so
   neither the probe's garbage nor the pass before it is collected on its
   clock. *)
let timed_passes ~seconds pass =
  let t0 = now () in
  let rec go acc before =
    Gc.compact ();
    let r = pass () in
    let after = Host.probe () in
    let acc = (r, Host.reference_s /. ((before +. after) /. 2.)) :: acc in
    if now () -. t0 >= seconds && List.length acc >= 2 then List.rev acc else go acc after
  in
  go [] (Host.probe ())

(* The probe time that a run's [scales] stand for, as its median. *)
let probe_s scales = Host.reference_s /. median scales
