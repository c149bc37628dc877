module Psm = Psm_core.Psm
module Table = Psm_mining.Prop_trace.Table
module Sample_tracker = Psm_mining.Sample_tracker
module Vocabulary = Psm_mining.Vocabulary
module Interface = Psm_trace.Interface
module Reader = Psm_trace.Reader
module Vcd = Psm_trace.Vcd
module Hmm = Psm_hmm.Hmm
module Filtering = Psm_hmm.Filtering
module Stepper = Psm_hmm.Multi_sim.Stepper
module Plan = Psm_hmm.Multi_sim.Plan
module Persist = Psm_flow.Persist
module Estimate = Psm_flow.Estimate

(* Unboxed growable ring of (int, float) pairs. The per-cycle hot loop
   pushes and pops one pair per session; a [Queue.t] of tuples would cost
   two minor allocations per operation, which at thousands of sessions
   per tick is most of the non-kernel time. Codes are plain ints so the
   caller picks the encoding (pending: proposition or -1 for unknown;
   results: PSM state id). *)
module Ring = struct
  (* The capacity is a power of two, so positions wrap with a mask. *)
  type t = {
    mutable code : int array;
    mutable value : float array;
    mutable head : int; (* index of the oldest element *)
    mutable len : int;
  }

  let create () =
    { code = Array.make 16 0; value = Array.make 16 0.; head = 0; len = 0 }

  let length q = q.len
  let is_empty q = q.len = 0

  let grow q =
    let cap = Array.length q.code in
    let code = Array.make (2 * cap) 0 and value = Array.make (2 * cap) 0. in
    for i = 0 to q.len - 1 do
      let src = (q.head + i) land (cap - 1) in
      code.(i) <- q.code.(src);
      value.(i) <- q.value.(src)
    done;
    q.code <- code;
    q.value <- value;
    q.head <- 0

  (* Inlined, so a float argument is not boxed for the call. *)
  let[@inline] push q c v =
    if q.len = Array.length q.code then grow q;
    let tail = (q.head + q.len) land (Array.length q.code - 1) in
    Array.unsafe_set q.code tail c;
    Array.unsafe_set q.value tail v;
    q.len <- q.len + 1

  (* Pop the oldest pair into [codes.(k)] and [values.(k)]: no tuple,
     and no boxed float. *)
  let pop_into q codes values k =
    if q.len = 0 then invalid_arg "Ring.pop_into: empty";
    codes.(k) <- Array.unsafe_get q.code q.head;
    values.(k) <- Array.unsafe_get q.value q.head;
    q.head <- (q.head + 1) land (Array.length q.code - 1);
    q.len <- q.len - 1

  (* The [i]-th oldest pair, left in place. *)
  let nth q i =
    let j = (q.head + i) land (Array.length q.code - 1) in
    (q.code.(j), q.value.(j))

  (* Drop the [n] oldest pairs. *)
  let drop q n =
    if n > q.len then invalid_arg "Ring.drop: too many";
    q.head <- (q.head + n) land (Array.length q.code - 1);
    q.len <- q.len - n

  (* An empty ring that one large upload grew goes back to its first
     size. *)
  let trim q =
    if q.len = 0 && Array.length q.code > Vcd.kept_records then begin
      q.code <- Array.make 16 0;
      q.value <- Array.make 16 0.;
      q.head <- 0
    end
end

(* A session's VCD upload state, made on its first chunk. The chunks of
   the upload in progress collect in [buf]; the last one is read with
   {!Vcd.read_upload} against the model's interface, with callbacks made
   once: [instant] classifies each row the reader hands over (the
   timestamps where values changed) into [codes] and [distances], and
   [grid] queues them as the resampled trace's cycles. *)
type upload = {
  reader : Vcd.upload;
  model_iface : Interface.t;
  tracker : Sample_tracker.t;
  mutable buf : Bytes.t;
  mutable len : int; (* bytes of [buf] in use *)
  mutable codes : int array; (* per row handed to [instant] *)
  mutable distances : int array;
  mutable count : int; (* rows classified *)
  mutable queued : int; (* cycles queued by [grid] *)
  instant : Psm_bits.Bits.t array -> unit;
  grid : int -> int -> unit;
}

type session = {
  id : string;
  model_name : string;
  mode : Estimate.mode;
  est : Estimate.t;
  nprops : int; (* the model's vocabulary size, resolved at open *)
  fstate : (Filtering.t * Filtering.Stream.state) option; (* filter hot path *)
  stepper : Stepper.t option; (* sim hot path *)
  seq : int; (* open order: the deterministic processing order *)
  queue : Ring.t; (* pending (proposition code, -1 = unknown; hd) *)
  results : Ring.t; (* produced (state id, power) *)
  mutable upload : upload option;
  mutable last_active : float;
}

(* A scheduling block: at most [shard_size] sessions of one (model, mode)
   group, in open order. Shards are rebuilt only when the session set
   changes; the per-tick scratch arrays live here so the hot path
   allocates nothing. *)
type shard = {
  members : session array;
  sh_states : Filtering.Stream.state array; (* filter shards; [||] for sim *)
  sh_codes : int array;
  sh_hds : float array;
  sh_powers : float array;
  sh_rows : int array;
}

type stats = {
  sessions : int;
  cycles_served : int;
  ticks : int;
  sweeps : int;
  opened : int;
  evicted : int;
  closed : int;
}

type session_stats = {
  cycles : int;
  wrong_instants : int;
  wsp : float;
  resync_events : int;
  log_likelihood : float;
}

type model_info = { name : string; states : int; props : int }

type t = {
  models : (string * Persist.model) list; (* sorted by name, unique *)
  filters : (string, Filtering.t) Hashtbl.t; (* lazily shared per model *)
  plans : (string, Plan.t) Hashtbl.t; (* likewise, for sim sessions *)
  sessions : (string, session) Hashtbl.t;
  idle_timeout : float; (* seconds; <= 0 disables eviction *)
  now : unit -> float;
  (* All sessions grouped by (model, mode) — groups in first-opened order,
     members in open order — split into shards and rebuilt only when the
     session set changes, so a tick pays one pending scan, no sort. *)
  mutable shards_cache : shard list;
  mutable groups_dirty : bool;
  mutable next_seq : int;
  mutable cycles_served : int;
  mutable ticks : int;
  mutable sweeps : int;
  mutable opened : int;
  mutable evicted : int;
  mutable closed : int;
}

let create ?(idle_timeout = 300.) ?now models =
  let models =
    List.sort (fun (a, _) (b, _) -> String.compare a b) models
  in
  let rec check_unique = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Engine.create: duplicate model %S" a);
        check_unique rest
    | _ -> ()
  in
  check_unique models;
  { models;
    filters = Hashtbl.create 8;
    plans = Hashtbl.create 8;
    sessions = Hashtbl.create 64;
    idle_timeout;
    now = (match now with Some f -> f | None -> Unix.gettimeofday);
    shards_cache = [];
    groups_dirty = false;
    next_seq = 0;
    cycles_served = 0;
    ticks = 0;
    sweeps = 0;
    opened = 0;
    evicted = 0;
    closed = 0 }

let find_model t name = List.assoc_opt name t.models

let prop_count (model : Persist.model) = Table.prop_count model.Persist.table

let filtering_for t name model =
  match Hashtbl.find_opt t.filters name with
  | Some f -> f
  | None ->
      let f = Filtering.create model.Persist.hmm in
      Hashtbl.replace t.filters name f;
      f

let plan_for t name (model : Persist.model) =
  match Hashtbl.find_opt t.plans name with
  | Some p -> p
  | None ->
      let p = Plan.create model.Persist.hmm in
      Hashtbl.replace t.plans name p;
      p

let models t =
  List.map
    (fun (name, (m : Persist.model)) ->
      { name; states = Psm.state_count m.Persist.psm; props = prop_count m })
    t.models

let session_count t = Hashtbl.length t.sessions
let has_session t id = Hashtbl.mem t.sessions id

let find_session t id =
  match Hashtbl.find_opt t.sessions id with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "unknown session %S" id)

let add_session t ~id ~model_name ~nprops est =
  let session =
    { id;
      model_name;
      mode = Estimate.mode est;
      est;
      nprops;
      fstate = Estimate.filter_state est;
      stepper = Estimate.sim_state est;
      seq = t.next_seq;
      queue = Ring.create ();
      results = Ring.create ();
      upload = None;
      last_active = t.now () }
  in
  t.next_seq <- t.next_seq + 1;
  t.opened <- t.opened + 1;
  t.groups_dirty <- true;
  Psm_obs.incr "serve.sessions_opened";
  Hashtbl.replace t.sessions id session

let open_session t ~id ~model ~mode =
  if Hashtbl.mem t.sessions id then
    Error (Printf.sprintf "session %S already exists" id)
  else
    match find_model t model with
    | None -> Error (Printf.sprintf "unknown model %S" model)
    | Some m ->
        let est =
          match mode with
          | `Sim -> Estimate.of_model ~plan:(plan_for t model m) ~mode m
          | `Filter ->
              Estimate.of_model ~filtering:(filtering_for t model m) ~mode m
        in
        add_session t ~id ~model_name:model ~nprops:(prop_count m) est;
        Ok ()

let close_session t ~id =
  match find_session t id with
  | Error _ as e -> e
  | Ok _ ->
      Hashtbl.remove t.sessions id;
      t.groups_dirty <- true;
      t.closed <- t.closed + 1;
      Ok ()

(* ---------- feeding ---------- *)

(* The first observation a session must not queue: a proposition outside
   the model's vocabulary, or an input Hamming distance that is not a
   finite non-negative number (an [Affine] state would turn it into a
   non-finite power estimate). *)
let invalid_observation ~nprops obs =
  let rec scan i =
    if i = Array.length obs then None
    else
      match obs.(i) with
      | Some p, _ when p < 0 || p >= nprops ->
          Some (Printf.sprintf "proposition %d out of range (model has %d)" p nprops)
      | _, hd when not (Float.is_finite hd && hd >= 0.) ->
          Some
            (Printf.sprintf "hd entry %d is %g, not a finite non-negative number" i hd)
      | _ -> scan (i + 1)
  in
  scan 0

let submit t ~id obs =
  match find_session t id with
  | Error _ as e -> e
  | Ok session ->
      match invalid_observation ~nprops:session.nprops obs with
      | Some e -> Error e
      | None ->
          Array.iter
            (fun (p, hd) ->
              Ring.push session.queue
                (match p with Some p -> p | None -> -1)
                hd)
            obs;
          session.last_active <- t.now ();
          Ok (Array.length obs)

let max_vcd_upload = 64 * 1024 * 1024

(* Bytes an upload keeps between documents: a larger buffer goes after
   its upload, as per-instant records past {!Vcd.kept_records} do. *)
let kept_upload_bytes = 1 lsl 16

let make_upload (model : Persist.model) queue =
  let table = model.Persist.table in
  let model_iface = Vocabulary.interface (Table.vocabulary table) in
  let tracker = Sample_tracker.create table in
  let rec u =
    { reader = Vcd.upload ();
      model_iface;
      tracker;
      buf = Bytes.create 0;
      len = 0;
      codes = Array.make 64 0;
      distances = Array.make 64 0;
      count = 0;
      queued = 0;
      instant =
        (fun row ->
          Sample_tracker.observe tracker row;
          let i = u.count in
          if i = Array.length u.codes then begin
            let grow a = Array.append a (Array.make i 0) in
            u.codes <- grow u.codes;
            u.distances <- grow u.distances
          end;
          Array.unsafe_set u.codes i (Sample_tracker.code tracker);
          Array.unsafe_set u.distances i (Sample_tracker.distance tracker);
          u.count <- i + 1);
      grid =
        (fun i reps ->
          let code = u.codes.(i) in
          Ring.push queue code (float_of_int u.distances.(i));
          for _ = 2 to reps do
            Ring.push queue code 0.
          done;
          u.queued <- u.queued + reps) }
  in
  u

let upload_of t session =
  match session.upload with
  | Some u -> u
  | None ->
      let u = make_upload (Option.get (find_model t session.model_name)) session.queue in
      session.upload <- Some u;
      u

(* Drop the upload in progress, and what a large one grew. *)
let end_upload u =
  u.len <- 0;
  if Bytes.length u.buf > kept_upload_bytes then u.buf <- Bytes.create 0;
  if Array.length u.codes > Vcd.kept_records then begin
    u.codes <- Array.make 64 0;
    u.distances <- Array.make 64 0
  end

let append_chunk u chunk =
  let n = String.length chunk in
  if u.len + n > Bytes.length u.buf then begin
    let bigger = Bytes.create (Int.max (u.len + n) (2 * Bytes.length u.buf)) in
    Bytes.blit u.buf 0 bigger 0 u.len;
    u.buf <- bigger
  end;
  Bytes.blit_string chunk 0 u.buf u.len n;
  u.len <- u.len + n

let vcd_chunk t ~id ~chunk ~last =
  match find_session t id with
  | Error e -> Error e
  | Ok session ->
      session.last_active <- t.now ();
      let u = upload_of t session in
      if u.len + String.length chunk > max_vcd_upload then begin
        end_upload u;
        Error (Printf.sprintf "vcd: upload exceeds %d bytes" max_vcd_upload)
      end
      else if not last then begin
        append_chunk u chunk;
        Ok 0
      end
      else begin
        (* A one-chunk upload is read where it lies. *)
        let bytes, len =
          if u.len = 0 then (Bytes.unsafe_of_string chunk, String.length chunk)
          else begin
            append_chunk u chunk;
            (u.buf, u.len)
          end
        in
        Ring.trim session.queue;
        u.count <- 0;
        u.queued <- 0;
        (* Each upload is its own trace: its first sample has distance 0. *)
        Sample_tracker.reset u.tracker;
        let read =
          Vcd.read_upload u.reader bytes len ~interface:u.model_iface ~instant:u.instant
            ~grid:u.grid
        in
        end_upload u;
        match read with
        | Error err -> Error (Printf.sprintf "vcd: %s" (Reader.error_to_string err))
        | Ok false ->
            Error
              (Printf.sprintf
                 "vcd: interface mismatch (model %S expects different signals)"
                 session.model_name)
        | Ok true -> Ok u.queued
      end

let pending t ~id =
  match find_session t id with
  | Error _ as e -> e
  | Ok s -> Ok (Array.init (Ring.length s.queue) (Ring.nth s.queue))

(* ---------- the batched tick ---------- *)

(* Advance a block of sessions (same model, same mode, ascending open
   order) by one cycle each, in one batched sweep. Returns sessions
   advanced. *)
let run_batched t (members : session array) states codes hds powers rows =
  let n = Array.length members in
  for k = 0 to n - 1 do
    Ring.pop_into members.(k).queue codes hds k
  done;
  let filt, _ = Option.get members.(0).fstate in
  Filtering.Stream.sweep filt states codes ~hds ~powers ~rows;
  let hmm = (Estimate.model members.(0).est).Persist.hmm in
  for k = 0 to n - 1 do
    Ring.push members.(k).results (Hmm.state_of_row hmm rows.(k)) powers.(k)
  done;
  t.sweeps <- t.sweeps + 1;
  Psm_obs.incr "serve.batch_sweeps";
  n

(* Sim sessions step one by one; the stepper keeps its result, so no
   (power, state) pair is built per cycle, its distance is read from
   [hds] and its power goes through [powers], both unboxed. *)
let run_loop (members : session array) codes hds powers =
  let n = Array.length members in
  for k = 0 to n - 1 do
    let s = members.(k) in
    Ring.pop_into s.queue codes hds k;
    let st = Option.get s.stepper in
    Stepper.advance_at st hds k codes.(k);
    Stepper.power_into st powers k;
    Ring.push s.results (Stepper.state st) powers.(k)
  done;
  n

(* A tick's work item: a whole shard (every member has a pending
   observation — the cached scratch arrays apply directly), or the
   pending subset of one (fresh right-sized arrays; rare). Filter groups
   always sweep; sim sessions step one by one. *)
let process_work t = function
  | `Full sh ->
      if sh.members.(0).mode = `Filter then
        run_batched t sh.members sh.sh_states sh.sh_codes sh.sh_hds
          sh.sh_powers sh.sh_rows
      else run_loop sh.members sh.sh_codes sh.sh_hds sh.sh_powers
  | `Subset (members : session array) ->
      let n = Array.length members in
      let codes = Array.make n 0 and hds = Array.make n 0. and powers = Array.make n 0. in
      if members.(0).mode = `Filter then
        run_batched t members
          (Array.map (fun s -> snd (Option.get s.fstate)) members)
          codes hds powers (Array.make n 0)
      else run_loop members codes hds powers

(* Sessions are grouped by (model, mode) — groups ordered by their
   first-opened member, members in open order, so the schedule is a
   function of the session set alone — then split into shards of at most
   [shard_size]. Sharding keeps the sweep's working set (every member's
   alpha/scratch pair) inside the cache; sessions are independent, so it
   never changes any result. Rebuilt only when the session set changes. *)
let shard_size = 128

let rebuild_shards t =
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
  let sorted = List.sort (fun a b -> Int.compare a.seq b.seq) all in
  let groups = ref [] in
  List.iter
    (fun s ->
      let key = (s.model_name, s.mode) in
      match List.assoc_opt key !groups with
      | Some cell -> cell := s :: !cell
      | None -> groups := !groups @ [ (key, ref [ s ]) ])
    sorted;
  let shards_of_group members =
    let arr = Array.of_list (List.rev members) in
    let total = Array.length arr in
    let nblocks = (total + shard_size - 1) / shard_size in
    List.init nblocks (fun b ->
        let lo = b * shard_size in
        let members = Array.sub arr lo (min shard_size (total - lo)) in
        let n = Array.length members in
        let is_filter = members.(0).mode = `Filter in
        { members;
          sh_states =
            (if is_filter then
               Array.map (fun s -> snd (Option.get s.fstate)) members
             else [||]);
          sh_codes = Array.make n 0;
          sh_hds = Array.make n 0.;
          sh_powers = Array.make n 0.;
          sh_rows = Array.make n 0 })
  in
  t.shards_cache <-
    List.concat_map (fun (_, cell) -> shards_of_group !cell) !groups;
  t.groups_dirty <- false

let pending_work t =
  if t.groups_dirty then rebuild_shards t;
  List.filter_map
    (fun sh ->
      let n = Array.length sh.members in
      let pending = ref 0 in
      Array.iter
        (fun s -> if not (Ring.is_empty s.queue) then incr pending)
        sh.members;
      if !pending = 0 then None
      else if !pending = n then Some (`Full sh)
      else begin
        let sub = Array.make !pending sh.members.(0) in
        let k = ref 0 in
        Array.iter
          (fun s ->
            if not (Ring.is_empty s.queue) then begin
              sub.(!k) <- s;
              incr k
            end)
          sh.members;
        Some (`Subset sub)
      end)
    t.shards_cache

let tick t =
  let work = pending_work t in
  if work = [] then 0
  else begin
    let t0 = Unix.gettimeofday () in
    (* Shards of the same (model, mode) group share one [Filtering.t],
       which is sound because Stream operations are documented (and
       required) to treat [t] as read-only — see the contract in
       [Filtering.Stream]. *)
    let advanced = List.fold_left (fun acc w -> acc + process_work t w) 0 work in
    t.ticks <- t.ticks + 1;
    t.cycles_served <- t.cycles_served + advanced;
    Psm_obs.count "serve.cycles" advanced;
    Psm_obs.observe "serve.tick_seconds" (Unix.gettimeofday () -. t0);
    advanced
  end

let drain t =
  let total = ref 0 in
  let rec loop () =
    let n = tick t in
    if n > 0 then begin
      total := !total + n;
      loop ()
    end
  in
  loop ();
  !total

(* ---------- results & stats ---------- *)

let available_results t ~id =
  match find_session t id with
  | Error _ as e -> e
  | Ok s -> Ok (Ring.length s.results)

let take_results t ~id ~count =
  match find_session t id with
  | Error _ as e -> e
  | Ok s ->
      let n = min count (Ring.length s.results) in
      let out =
        Array.init n (fun i ->
            let state, power = Ring.nth s.results i in
            (power, state))
      in
      Ring.drop s.results n;
      Ring.trim s.results;
      Ok out

let session_stats t ~id =
  match find_session t id with
  | Error _ as e -> e
  | Ok s ->
      Ok
        { cycles = Estimate.cycles s.est;
          wrong_instants = Estimate.wrong_instants s.est;
          wsp = Estimate.wsp s.est;
          resync_events = Estimate.resync_events s.est;
          log_likelihood = Estimate.log_likelihood s.est }

let stats t =
  { sessions = session_count t;
    cycles_served = t.cycles_served;
    ticks = t.ticks;
    sweeps = t.sweeps;
    opened = t.opened;
    evicted = t.evicted;
    closed = t.closed }

(* ---------- idle eviction ---------- *)

let evict_idle t =
  if t.idle_timeout <= 0. then []
  else begin
    let deadline = t.now () -. t.idle_timeout in
    let stale =
      Hashtbl.fold
        (fun _ s acc -> if s.last_active < deadline then s.id :: acc else acc)
        t.sessions []
      |> List.sort String.compare
    in
    List.iter
      (fun id ->
        Hashtbl.remove t.sessions id;
        t.evicted <- t.evicted + 1;
        Psm_obs.incr "serve.sessions_evicted")
      stale;
    if stale <> [] then t.groups_dirty <- true;
    stale
  end

(* ---------- checkpoints ---------- *)

let checkpoint_version = Checkpoint.version

let checkpoint t ~id =
  match find_session t id with
  | Error _ as e -> e
  | Ok s -> Ok (Checkpoint.encode ~model:s.model_name (Estimate.export s.est))

let restore_session t ~id data =
  if Hashtbl.mem t.sessions id then
    Error (Printf.sprintf "session %S already exists" id)
  else
    match Checkpoint.decode data with
    | Error _ as e -> e
    | Ok (model_name, portable) -> (
        match find_model t model_name with
        | None ->
            Error
              (Printf.sprintf "checkpoint names unknown model %S" model_name)
        | Some m -> (
            (* Each session kind builds (and pays for) only its own
               shared per-model context. *)
            let filtering, plan =
              match portable.Estimate.portable_backend with
              | Estimate.Portable_filter _ ->
                  (Some (filtering_for t model_name m), None)
              | Estimate.Portable_sim _ -> (None, Some (plan_for t model_name m))
            in
            match Estimate.import ?filtering ?plan m portable with
            | Error e -> Error ("checkpoint: " ^ e)
            | Ok est ->
                add_session t ~id ~model_name ~nprops:(prop_count m) est;
                Ok ()))
