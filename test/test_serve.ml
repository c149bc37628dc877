(* Serve-layer tests: the multi-session estimation engine and the
   line-JSON daemon in front of it.

   The engine's contract is determinism — served (power, state) streams
   are bit-identical to offline inference regardless of client arrival
   interleaving, chunk boundaries or scheduler batching — so
   most tests here drive the same observation plans through wildly
   different schedules and demand Float.compare-equality against the
   offline evaluators. The rest is the failure envelope: malformed
   frames, out-of-vocabulary submissions, truncated VCD uploads,
   disconnects and idle eviction must each degrade exactly one request
   or one session, never the daemon. *)

module Flow = Psm_flow.Flow
module Persist = Psm_flow.Persist
module Estimate = Psm_flow.Estimate
module Workloads = Psm_ips.Workloads
module Capture = Psm_ips.Capture
module Table = Psm_mining.Prop_trace.Table
module Psm = Psm_core.Psm
module Hmm = Psm_hmm.Hmm
module Filtering = Psm_hmm.Filtering
module Multi_sim = Psm_hmm.Multi_sim
module Functional_trace = Psm_trace.Functional_trace
module Vcd = Psm_trace.Vcd
module Engine = Psm_serve.Engine
module Server = Psm_serve.Server
module Protocol = Psm_serve.Protocol
module Json = Psm_serve.Json
module J = Json_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let get = function Ok v -> v | Error e -> Alcotest.fail e

(* ---------- trained models, one per IP, shared across the suite ---------- *)

let ip_makes =
  [ ("RAM", Psm_ips.Ram.create);
    ("MultSum", Psm_ips.Multsum.create);
    ("AES", Psm_ips.Aes.create);
    ("Camellia", Psm_ips.Camellia.create);
    ("FIFO", Psm_ips.Fifo.create) ]

let model_cache : (string, Persist.model) Hashtbl.t = Hashtbl.create 8

let model_of name =
  match Hashtbl.find_opt model_cache name with
  | Some m -> m
  | None ->
      let make = List.assoc name ip_makes in
      let trained =
        Flow.train_on_ip (make ())
          (Workloads.suite ~parts:3 ~total_length:3_000 ~long:false name)
      in
      let m =
        { Persist.table = trained.Flow.table;
          psm = trained.Flow.optimized;
          hmm = trained.Flow.hmm }
      in
      Hashtbl.replace model_cache name m;
      m

let nprops (m : Persist.model) = Table.prop_count m.Persist.table

(* ---------- the offline reference ---------- *)

(* Same evaluators the bench self-checks use: posterior-weighted output
   means + marginal MAP states for filter mode, the assertion-cursor
   stepper for sim mode. Served output must match bit for bit. *)
let offline_expected (model : Persist.model) (mode : Estimate.mode) obs =
  let hmm = model.Persist.hmm in
  match mode with
  | `Filter ->
      let filt = Filtering.create hmm in
      let rows = Filtering.map_states filt obs in
      let posts = Filtering.posteriors filt obs in
      let outputs =
        Array.init
          (Array.length posts.(0))
          (fun row -> (Psm.state model.Persist.psm (Hmm.state_of_row hmm row)).Psm.output)
      in
      Array.init (Array.length obs) (fun t ->
          let acc = ref 0. in
          Array.iteri
            (fun row p ->
              if p > 0. then acc := !acc +. (p *. Psm.eval_output outputs.(row) ~hamming:0.))
            posts.(t);
          (!acc, Hmm.state_of_row hmm rows.(t)))
  | `Sim ->
      let stepper = Multi_sim.Stepper.create hmm in
      Array.map
        (fun o ->
          Multi_sim.Stepper.advance stepper ~hamming:0. (Option.value o ~default:(-1));
          (Multi_sim.Stepper.power stepper, Multi_sim.Stepper.state stepper))
        obs

let check_served ~what expected actual =
  check_int (what ^ " cycles") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i (pe, se) ->
      let pa, sa = actual.(i) in
      if se <> sa || Float.compare pe pa <> 0 then
        Alcotest.failf "%s cycle %d: offline %.17g/s%d, served %.17g/s%d" what i
          pe se pa sa)
    expected

(* ---------- interleaved driving ---------- *)

type plan = {
  id : string;
  model : string;
  mode : Estimate.mode;
  obs : int option array;
}

let mk_obs ~oseed ~np ~len =
  let rng = Random.State.make [| oseed; 331 |] in
  Array.init len (fun _ ->
      if np = 0 || Random.State.int rng 8 = 0 then None
      else Some (Random.State.int rng np))

let models_for plans =
  List.sort_uniq compare (List.map (fun p -> p.model) plans)
  |> List.map (fun name -> (name, model_of name))

(* Feed every plan through one engine in a seed-chosen interleaving:
   random chunk sizes, random session order, drains injected at random
   points mid-stream. Determinism says none of this can show up in the
   outputs. *)
let drive ~seed plans =
  let engine = Engine.create ~idle_timeout:0. (models_for plans) in
  List.iter
    (fun p ->
      match Engine.open_session engine ~id:p.id ~model:p.model ~mode:p.mode with
      | Ok () -> ()
      | Error e -> Alcotest.failf "open %s: %s" p.id e)
    plans;
  let rng = Random.State.make [| seed; 229 |] in
  let cursors = Array.of_list (List.map (fun p -> (p, ref 0)) plans) in
  let remaining = ref (List.length plans) in
  while !remaining > 0 do
    let p, cur = cursors.(Random.State.int rng (Array.length cursors)) in
    let total = Array.length p.obs in
    if !cur < total then begin
      let chunk = min (1 + Random.State.int rng 7) (total - !cur) in
      let slice = Array.init chunk (fun i -> (p.obs.(!cur + i), 0.)) in
      (match Engine.submit engine ~id:p.id slice with
      | Ok n when n = chunk -> ()
      | Ok n -> Alcotest.failf "submit %s: enqueued %d of %d" p.id n chunk
      | Error e -> Alcotest.failf "submit %s: %s" p.id e);
      cur := !cur + chunk;
      if !cur = total then decr remaining
    end;
    if Random.State.int rng 3 = 0 then ignore (Engine.drain engine)
  done;
  ignore (Engine.drain engine);
  List.map
    (fun p ->
      match Engine.take_results engine ~id:p.id ~count:(Array.length p.obs) with
      | Ok r -> (p, r)
      | Error e -> Alcotest.failf "take %s: %s" p.id e)
    plans

(* ---------- property: served = offline for any interleaving ---------- *)

let gen_session_set =
  QCheck.Gen.(
    let* n = 2 -- 4 in
    let* seed = 0 -- 1_000_000 in
    let* specs =
      list_repeat n
        (triple
           (oneofl [ ("RAM", `Filter); ("RAM", `Sim); ("FIFO", `Filter); ("FIFO", `Sim) ])
           (0 -- 1_000_000) (20 -- 60))
    in
    return (seed, specs))

let test_served_equals_offline =
  QCheck.Test.make ~count:12
    ~name:"served power/state = offline (any interleaving/chunking)"
    (QCheck.make gen_session_set) (fun (seed, specs) ->
      let plans =
        List.mapi
          (fun i ((model, mode), oseed, len) ->
            { id = Printf.sprintf "q%d" i;
              model;
              mode;
              obs = mk_obs ~oseed ~np:(nprops (model_of model)) ~len })
          specs
      in
      List.iter
        (fun (p, served) ->
          check_served
            ~what:(Printf.sprintf "%s (%s)" p.id p.model)
            (offline_expected (model_of p.model) p.mode p.obs)
            served)
        (drive ~seed plans);
      true)

(* ---------- batched = loop ---------- *)

(* The per-session reference loop for a filter plan: one
   [Filtering.Stream.step] per observation, scored after each step. *)
let loop_expected (model : Persist.model) obs =
  let hmm = model.Persist.hmm in
  let filt = Filtering.create hmm in
  let st = Filtering.Stream.make filt in
  Array.map
    (fun o ->
      Filtering.Stream.step filt st (Option.value o ~default:(-1));
      ( Filtering.Stream.power filt st ~hamming:0.,
        Hmm.state_of_row hmm (Filtering.Stream.map_state filt st) ))
    obs

let test_batched_equals_loop () =
  let plans =
    List.mapi
      (fun i (model, mode) ->
        { id = Printf.sprintf "p%d" i;
          model;
          mode;
          obs = mk_obs ~oseed:(400 + i) ~np:(nprops (model_of model)) ~len:120 })
      [ ("RAM", `Filter); ("RAM", `Filter); ("RAM", `Sim);
        ("FIFO", `Filter); ("FIFO", `Sim); ("RAM", `Filter) ]
  in
  let reference =
    List.map (fun p -> offline_expected (model_of p.model) p.mode p.obs) plans
  in
  (* Offline inference is the loop's own arithmetic (sim plans step the
     same stepper the engine does). *)
  List.iter2
    (fun p expected ->
      if p.mode = `Filter then
        check_served ~what:(p.id ^ " loop") expected
          (loop_expected (model_of p.model) p.obs))
    plans reference;
  List.iter2
    (fun expected (p, actual) -> check_served ~what:(p.id ^ " served") expected actual)
    reference (drive ~seed:18 plans)

(* ---------- fault injection: the engine ---------- *)

let test_engine_faults () =
  let m = model_of "RAM" in
  let np = nprops m in
  (match Engine.create [ ("RAM", m); ("RAM", m) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate model names accepted");
  let engine = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  (match Engine.open_session engine ~id:"s" ~model:"nope" ~mode:`Filter with
  | Error e -> check_bool "unknown model named" true (contains e "nope")
  | Ok () -> Alcotest.fail "opened on unknown model");
  get (Engine.open_session engine ~id:"s" ~model:"RAM" ~mode:`Filter);
  (match Engine.open_session engine ~id:"s" ~model:"RAM" ~mode:`Sim with
  | Error e -> check_bool "duplicate session named" true (contains e "s")
  | Ok () -> Alcotest.fail "duplicate session id accepted");
  (match Engine.submit engine ~id:"ghost" [| (None, 0.) |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "submit to unknown session accepted");
  (* An out-of-vocabulary proposition rejects the whole submission
     atomically: nothing of the bad batch is enqueued... *)
  (match Engine.submit engine ~id:"s" [| (Some 0, 0.); (Some np, 0.) |] with
  | Error e -> check_bool "out of range named" true (contains e "out of range")
  | Ok _ -> Alcotest.fail "out-of-range proposition accepted");
  ignore (Engine.drain engine);
  check_int "nothing served from rejected batch" 0
    (get (Engine.available_results engine ~id:"s"));
  (* ...and the session remains fully usable, bit-identical to offline. *)
  let obs = mk_obs ~oseed:7 ~np ~len:40 in
  check_int "enqueued" 40
    (get (Engine.submit engine ~id:"s" (Array.map (fun o -> (o, 0.)) obs)));
  ignore (Engine.drain engine);
  check_served ~what:"post-fault session"
    (offline_expected m `Filter obs)
    (get (Engine.take_results engine ~id:"s" ~count:40));
  get (Engine.close_session engine ~id:"s");
  (match Engine.submit engine ~id:"s" [| (None, 0.) |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "submit to closed session accepted")

let ram_trace ?(length = 600) () =
  let trace, _ =
    Capture.run (Psm_ips.Ram.create ())
      (List.hd (Workloads.suite ~parts:1 ~total_length:length ~long:false "RAM"))
  in
  trace

(* Feed a VCD upload in pieces, as a socket client would. *)
let feed_vcd engine ~id text ~pieces =
  let len = String.length text in
  let step = max 1 ((len + pieces - 1) / pieces) in
  let served = ref 0 in
  let pos = ref 0 in
  while !pos < len do
    let n = min step (len - !pos) in
    let last = !pos + n >= len in
    served :=
      get (Engine.vcd_chunk engine ~id ~chunk:(String.sub text !pos n) ~last);
    pos := !pos + n
  done;
  !served

let test_vcd_faults_and_equivalence () =
  let m = model_of "RAM" in
  let engine = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  get (Engine.open_session engine ~id:"v" ~model:"RAM" ~mode:`Filter);
  (* Garbage upload: per-session error, buffer reset, session intact. *)
  check_int "garbage buffered" 0
    (get (Engine.vcd_chunk engine ~id:"v" ~chunk:"this is not" ~last:false));
  (match Engine.vcd_chunk engine ~id:"v" ~chunk:" a vcd file" ~last:true with
  | Error e -> check_bool "vcd error prefixed" true (contains e "vcd")
  | Ok _ -> Alcotest.fail "garbage VCD accepted");
  let trace = ram_trace () in
  let text = Vcd.to_string trace in
  (* Truncated upload: also just an error on that session. *)
  (match
     Engine.vcd_chunk engine ~id:"v"
       ~chunk:(String.sub text 0 (String.length text / 2))
       ~last:true
   with
  | Error e -> check_bool "truncated error prefixed" true (contains e "vcd")
  | Ok _ -> Alcotest.fail "truncated VCD accepted");
  (* An upload is bit-identical to submitting the classified
     propositions with the interface's input-Hamming series. *)
  let check_upload ~v ~o ~pieces trace text =
    get (Engine.open_session engine ~id:o ~model:"RAM" ~mode:`Filter);
    let n = Functional_trace.length trace in
    check_int "vcd cycles enqueued" n (feed_vcd engine ~id:v text ~pieces);
    let hd = Functional_trace.input_hamming_series trace in
    let classified =
      Array.init n (fun time ->
          ( Table.classify m.Persist.table (Functional_trace.sample trace ~time),
            hd.(time) ))
    in
    check_int "observe cycles enqueued" n (get (Engine.submit engine ~id:o classified));
    ignore (Engine.drain engine);
    let via_vcd = get (Engine.take_results engine ~id:v ~count:n) in
    let via_obs = get (Engine.take_results engine ~id:o ~count:n) in
    check_int "same cycle count" (Array.length via_obs) (Array.length via_vcd);
    Array.iteri
      (fun i (pe, se) ->
        let pa, sa = via_vcd.(i) in
        if se <> sa || Float.compare pe pa <> 0 then
          Alcotest.failf "%s: vcd/observe divergence at cycle %d" v i)
      via_obs
  in
  (* The same session then serves the full upload. *)
  check_upload ~v:"v" ~o:"o" ~pieces:5 trace text;
  (* About 5 MiB, the largest upload the tests send. *)
  let big = ram_trace ~length:125_000 () in
  let big_text = Vcd.to_string big in
  check_bool "large upload above 4 MiB" true (String.length big_text > 4 * 1024 * 1024);
  check_bool "large upload within the bound" true
    (String.length big_text < Engine.max_vcd_upload);
  get (Engine.open_session engine ~id:"big" ~model:"RAM" ~mode:`Filter);
  check_upload ~v:"big" ~o:"big-o" ~pieces:7 big big_text

(* Input Hamming distances cross the wire as JSON numbers; one that is
   infinite (1e400 overflows), negative or NaN would make an [Affine]
   state emit a non-finite estimate. The batch is rejected whole, naming
   the entry, before anything is queued. *)
let test_observe_rejects_bad_hd () =
  let m = model_of "RAM" in
  let engine = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  get (Engine.open_session engine ~id:"s" ~model:"RAM" ~mode:`Filter);
  let submit_line line =
    match Protocol.parse_request line with
    | Ok (Protocol.Observe { session; obs }) -> Engine.submit engine ~id:session obs
    | _ -> Alcotest.failf "observe frame not parsed: %s" line
  in
  List.iter
    (fun (line, entry) ->
      match submit_line line with
      | Error e -> check_bool ("bad entry named: " ^ e) true (contains e entry)
      | Ok _ -> Alcotest.failf "accepted %s" line)
    [ ({|{"op":"observe","session":"s","props":[0,1],"hd":[1e400,-3]}|}, "hd entry 0");
      ({|{"op":"observe","session":"s","props":[0,1],"hd":[1,-3]}|}, "hd entry 1");
      ({|{"op":"observe","session":"s","props":[0,1],"hd":[2,1e400]}|}, "hd entry 1") ];
  (match Engine.submit engine ~id:"s" [| (Some 0, 0.); (None, Float.nan) |] with
  | Error e -> check_bool "NaN entry named" true (contains e "hd entry 1")
  | Ok _ -> Alcotest.fail "NaN hd accepted");
  ignore (Engine.drain engine);
  check_int "nothing queued" 0 (get (Engine.available_results engine ~id:"s"));
  check_int "valid neighbour accepted" 2
    (get (submit_line {|{"op":"observe","session":"s","props":[0,1],"hd":[1,3]}|}));
  ignore (Engine.drain engine);
  Array.iter
    (fun (p, _) -> check_bool "finite estimate" true (Float.is_finite p))
    (get (Engine.take_results engine ~id:"s" ~count:2))

(* A VCD upload buffers until its last chunk; past
   [Engine.max_vcd_upload] it is dropped with a [vcd:] error and the
   session takes a fresh upload. *)
let test_vcd_upload_bound () =
  let m = model_of "RAM" in
  let engine = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  get (Engine.open_session engine ~id:"v" ~model:"RAM" ~mode:`Filter);
  let mib = String.make (1 lsl 20) ' ' in
  for _ = 1 to Engine.max_vcd_upload / String.length mib do
    check_int "buffered" 0 (get (Engine.vcd_chunk engine ~id:"v" ~chunk:mib ~last:false))
  done;
  (match Engine.vcd_chunk engine ~id:"v" ~chunk:" " ~last:false with
  | Error e -> check_bool ("oversized upload: " ^ e) true (contains e "vcd: upload exceeds")
  | Ok _ -> Alcotest.fail "upload past the bound accepted");
  let trace = ram_trace () in
  check_int "fresh upload served" (Functional_trace.length trace)
    (get (Engine.vcd_chunk engine ~id:"v" ~chunk:(Vcd.to_string trace) ~last:true))

(* Header and gap faults in an upload come back as located
   [vcd: line N, ...] errors on that session, and an aliased identifier
   code is served like the plain upload. *)
let test_vcd_typed_errors () =
  let m = model_of "RAM" in
  let engine = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  get (Engine.open_session engine ~id:"v" ~model:"RAM" ~mode:`Filter);
  let trace = ram_trace () in
  let text = Vcd.to_string trace in
  let lines = String.split_on_char '\n' text in
  (* The writer's first variable: "$var wire W CODE NAME $end". *)
  let var_index =
    let rec find i = function
      | l :: rest -> if String.starts_with ~prefix:"$var " l then i else find (i + 1) rest
      | [] -> Alcotest.fail "no $var line"
    in
    find 0 lines
  in
  let width, code, name =
    match String.split_on_char ' ' (List.nth lines var_index) with
    | [ _; _; w; c; n; _ ] -> (w, c, n)
    | _ -> Alcotest.fail "unexpected $var line"
  in
  let with_var extra =
    String.concat "\n"
      (List.concat (List.mapi (fun i l -> if i = var_index then [ l; extra ] else [ l ]) lines))
  in
  let extra_line = var_index + 2 in
  let located what ~line upload =
    match Engine.vcd_chunk engine ~id:"v" ~chunk:upload ~last:true with
    | Error e ->
        check_bool (what ^ ": " ^ e) true
          (String.starts_with ~prefix:(Printf.sprintf "vcd: line %d, column 1:" line) e)
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  located "duplicate name" ~line:extra_line
    (with_var (Printf.sprintf "$var wire %s ~~ %s $end" width name));
  located "oversized width" ~line:extra_line
    (with_var "$var wire 4611686018427387903 ~~ huge $end");
  located "timestamp gap" ~line:(List.length lines) (text ^ "#100000001\n");
  check_int "alias served" (Functional_trace.length trace)
    (get
       (Engine.vcd_chunk engine ~id:"v"
          ~chunk:(with_var (Printf.sprintf "$var wire %s %s also_%s $end" width code name))
          ~last:true))

(* What an upload costs and keeps. Re-uploading a 64-cycle writer
   document, once the session has its upload state, allocates at most
   [upload_words_per_cycle] minor words per uploaded cycle (measured
   14.6 for this RAM document: its declarations, about a third, the
   decoded vector values, the reader and the per-document records). And
   what a session holds after one
   large upload is what it held after a small one, give or take 64 Ki
   words: the upload buffer, its timestamp records and the session's
   queues do not stay at the large upload's scale. *)
let upload_words_per_cycle = 20.

let test_vcd_upload_cost () =
  let m = model_of "RAM" in
  let engine = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  get (Engine.open_session engine ~id:"v" ~model:"RAM" ~mode:`Filter);
  let trace = ram_trace () in
  let doc = Vcd.to_string (Functional_trace.sub trace ~start:100 ~stop:163) in
  let upload text =
    let n = feed_vcd engine ~id:"v" text ~pieces:2 in
    ignore (Engine.drain engine);
    ignore (get (Engine.take_results engine ~id:"v" ~count:n));
    n
  in
  check_int "first upload" 64 (upload doc);
  let before = Gc.minor_words () in
  let n = feed_vcd engine ~id:"v" doc ~pieces:2 in
  let words = Gc.minor_words () -. before in
  check_int "re-upload" 64 n;
  ignore (Engine.drain engine);
  ignore (get (Engine.take_results engine ~id:"v" ~count:n));
  if words /. 64. > upload_words_per_cycle then
    Alcotest.failf "re-upload: %.1f words per cycle, bound %.0f" (words /. 64.)
      upload_words_per_cycle;
  let held () = Obj.reachable_words (Obj.repr engine) in
  let small = held () in
  (* About 1.5 MB of document: the capture's samples, cycled. *)
  let samples = Array.init 600 (fun time -> Functional_trace.sample trace ~time) in
  let large =
    Vcd.to_string
      (Functional_trace.of_samples (Functional_trace.interface trace)
         (Array.init 60_000 (fun i -> samples.(i mod 600))))
  in
  check_bool "large upload above 1 MiB" true (String.length large > 1 lsl 20);
  check_int "large upload" 60_000 (upload large);
  check_int "small upload after" 64 (upload doc);
  let after = held () in
  if after - small > 65_536 then
    Alcotest.failf "a session holds %d words after a large upload, %d before" after small

(* A Sim shard's tick allocates nothing per cycle: the tick's own
   set-up (its work list, clock reads) is the same for 64 sessions as
   for 128, so ten ticks of either must cost the same words. The plan is
   one proposition repeated with a non-zero distance, which the model
   follows without a resynchronization, so every step is a stay. *)
let test_sim_tick_allocation () =
  let m = model_of "RAM" in
  let steady p =
    let st = Multi_sim.Stepper.create m.Persist.hmm in
    let ok = ref true in
    for _ = 1 to 40 do
      Multi_sim.Stepper.advance st ~hamming:1.5 p;
      if Multi_sim.Stepper.state st < 0 then ok := false
    done;
    !ok && Multi_sim.Stepper.resync_events st = 0
  in
  let p =
    match List.find_opt steady (List.init (nprops m) Fun.id) with
    | Some p -> p
    | None -> Alcotest.fail "no proposition the RAM model stays on"
  in
  let ticks sessions =
    let engine = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
    let ids = List.init sessions (Printf.sprintf "s%d") in
    List.iter (fun id -> get (Engine.open_session engine ~id ~model:"RAM" ~mode:`Sim)) ids;
    let round () =
      List.iter (fun id -> ignore (get (Engine.submit engine ~id (Array.make 10 (Some p, 1.5))))) ids;
      let before = Gc.minor_words () in
      for _ = 1 to 10 do
        check_int "one cycle per session" sessions (Engine.tick engine)
      done;
      let words = Gc.minor_words () -. before in
      List.iter (fun id -> ignore (get (Engine.take_results engine ~id ~count:10))) ids;
      words
    in
    ignore (round ());
    round ()
  in
  let small = ticks 64 and large = ticks 128 in
  if large -. small <> 0. then
    Alcotest.failf "10 ticks: %.0f words for 64 Sim sessions, %.0f for 128 (%.2f per cycle)" small
      large ((large -. small) /. 640.)

(* ---------- uploads against the parse-then-walk oracle ---------- *)

let capture_of name length =
  let make = List.assoc name ip_makes in
  Capture.run (make ())
    (List.hd (Workloads.suite ~parts:1 ~total_length:length ~long:false name))

(* Writer documents cut from a capture: windows of 1 to 64 cycles, half of
   them with the power variable. *)
let writer_docs rng name =
  let trace, power = capture_of name 800 in
  let n = Functional_trace.length trace in
  Array.init 24 (fun _ ->
      let len = 1 + Random.State.int rng 64 in
      let start = Random.State.int rng (n - len) in
      let stop = start + len - 1 in
      let window = Functional_trace.sub trace ~start ~stop in
      if Random.State.bool rng then Vcd.to_string window
      else
        Vcd.to_string
          ~power:(Psm_trace.Power_trace.of_array
                    (Array.init len (fun i -> Psm_trace.Power_trace.get power (start + i))))
          window)

let lines_of text = String.split_on_char '\n' text
let unlines = String.concat "\n"

(* Rewrite the timestamp lines ([#t]) with [f], the others kept. *)
let map_timestamps f text =
  unlines
    (List.map
       (fun l ->
         if String.length l > 1 && l.[0] = '#' then
           match int_of_string_opt (String.sub l 1 (String.length l - 1)) with
           | Some t -> f l t
           | None -> l
         else l)
       (lines_of text))

let header_end text =
  let key = "$enddefinitions $end" in
  let rec find i =
    if i + String.length key > String.length text then String.length text
    else if String.sub text i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  find 0

(* One mutation of a writer document, by kind. *)
let mutate rng docs kind doc =
  let len = String.length doc in
  let pick () = Random.State.int rng (max 1 len) in
  match kind with
  | 0 -> doc
  | 1 ->
      (* byte flip *)
      let b = Bytes.of_string doc in
      let chars = " \n\t#$bBrRxXzZ01!\"%&~9:-.e" in
      if len > 0 then
        Bytes.set b (pick ())
          (if Random.State.int rng 4 = 0 then Char.chr (Random.State.int rng 256)
           else chars.[Random.State.int rng (String.length chars)]);
      Bytes.to_string b
  | 2 -> String.sub doc 0 (pick ()) (* truncation *)
  | 3 ->
      (* splice: a prefix of this document, a suffix of another *)
      let other = docs.(Random.State.int rng (Array.length docs)) in
      let i = pick () and j = Random.State.int rng (max 1 (String.length other)) in
      String.sub doc 0 i ^ String.sub other j (String.length other - j)
  | 4 ->
      (* gaps: stretched or shifted time *)
      let k = 1 + Random.State.int rng 5 and shift = Random.State.int rng 3 in
      map_timestamps (fun _ t -> Printf.sprintf "#%d" ((t * k) + if t > 0 then shift else 0)) doc
  | 5 ->
      (* a repeated, or backwards, timestamp *)
      let back = Random.State.bool rng in
      unlines
        (List.concat_map
           (fun l ->
             if String.length l > 1 && l.[0] = '#' && Random.State.int rng 6 = 0 then
               match int_of_string_opt (String.sub l 1 (String.length l - 1)) with
               | Some t when back && t > 0 -> [ l; Printf.sprintf "#%d" (t - 1) ]
               | _ -> [ l; l ]
             else [ l ])
           (lines_of doc))
  | 6 ->
      (* x/z digits in value changes *)
      let h = header_end doc in
      String.mapi
        (fun i c ->
          if i > h && (c = '0' || c = '1') && Random.State.int rng 25 = 0 then
            "xXzZ".[Random.State.int rng 4]
          else c)
        doc
  | _ ->
      (* the header: another timescale, a header comment, or text glued
         to the final $end *)
      let h = header_end doc in
      let header = String.sub doc 0 h and body = String.sub doc h (len - h) in
      (match Random.State.int rng 3 with
      | 0 -> "$timescale 10ps $end\n" ^ header ^ body
      | 1 -> "$comment a new header $end\n" ^ header ^ body
      | _ -> header ^ "junk $end" ^ body)

(* Split [text] into 1 to 3 chunks. *)
let chunks rng text =
  let len = String.length text in
  match Random.State.int rng 3 with
  | 0 -> [ text ]
  | 1 ->
      let i = Random.State.int rng (len + 1) in
      [ String.sub text 0 i; String.sub text i (len - i) ]
  | _ ->
      let i = Random.State.int rng (len + 1) in
      let j = i + Random.State.int rng (len - i + 1) in
      [ String.sub text 0 i; String.sub text i (j - i); String.sub text j (len - j) ]

let feed_chunks engine ~id pieces =
  let rec go = function
    | [] -> assert false
    | [ last ] -> Engine.vcd_chunk engine ~id ~chunk:last ~last:true
    | c :: rest -> (
        match Engine.vcd_chunk engine ~id ~chunk:c ~last:false with
        | Ok 0 -> go rest
        | Ok n -> Alcotest.failf "a middle chunk queued %d cycles" n
        | Error _ as e -> e)
  in
  go pieces

(* Seeded mutations of writer documents, uploaded in 1 to 3 chunks into
   sessions that keep their upload state between uploads: an upload never
   raises, fails exactly when [Vcd.parse] of its bytes raises (same text,
   line and column) or its interface differs, and otherwise queues
   exactly the oracle's (code, distance) pairs. Documents of one IP go to
   a session of another IP too, so headers change between uploads and
   mismatches meet parse errors. *)
let test_vcd_upload_mutations () =
  let rng = Random.State.make [| 0x5eed; 24 |] in
  let names = [ "RAM"; "AES" ] in
  let models = List.map (fun n -> (n, model_of n)) names in
  let engine = Engine.create ~idle_timeout:0. models in
  let sessions = [ ("ram", "RAM"); ("aes", "AES"); ("ram2", "RAM") ] in
  List.iter
    (fun (id, model) -> get (Engine.open_session engine ~id ~model ~mode:`Filter))
    sessions;
  let docs = List.map (fun n -> (n, writer_docs rng n)) names in
  let outcomes = Array.make 3 0 in
  for round = 1 to 400 do
    let id, model = List.nth sessions (Random.State.int rng (List.length sessions)) in
    (* Mostly the session's own IP, sometimes the other one. *)
    let source = if Random.State.int rng 5 = 0 then List.nth names (round mod 2) else model in
    let pool = List.assoc source docs in
    let doc = pool.(Random.State.int rng (Array.length pool)) in
    let kind = if Random.State.int rng 3 = 0 then 0 else Random.State.int rng 8 in
    let text = mutate rng pool kind doc in
    let before = get (Engine.pending engine ~id) in
    let got =
      match feed_chunks engine ~id (chunks rng text) with
      | r -> r
      | exception e ->
          Alcotest.failf "round %d (kind %d): upload raised %s on %S" round kind
            (Printexc.to_string e) text
    in
    let expected =
      match Upload_oracle.upload ~model_name:model (List.assoc model models) text with
      | r -> r
      | exception e ->
          Alcotest.failf "round %d: Vcd.parse raised %s on %S" round (Printexc.to_string e) text
    in
    let after = get (Engine.pending engine ~id) in
    (match (expected, got) with
    | Error e, Error g ->
        if e <> g then Alcotest.failf "round %d (kind %d): error %S, oracle %S on %S" round kind g e text;
        if Array.length after <> Array.length before then
          Alcotest.failf "round %d: a failed upload queued cycles" round;
        outcomes.(if contains e "interface mismatch" then 1 else 2) <-
          outcomes.(if contains e "interface mismatch" then 1 else 2) + 1
    | Ok pairs, Ok n ->
        if n <> Array.length pairs then
          Alcotest.failf "round %d: %d cycles returned, oracle %d" round n (Array.length pairs);
        let queued = Array.sub after (Array.length before) (Array.length after - Array.length before) in
        if Array.length queued <> n then
          Alcotest.failf "round %d: %d cycles queued, %d returned" round (Array.length queued) n;
        Array.iteri
          (fun i (c, d) ->
            let c', d' = queued.(i) in
            if c <> c' || Float.compare d d' <> 0 then
              Alcotest.failf "round %d (kind %d) cycle %d: queued (%d, %g), oracle (%d, %g)" round
                kind i c' d' c d)
          pairs;
        outcomes.(0) <- outcomes.(0) + 1
    | Error e, Ok _ -> Alcotest.failf "round %d (kind %d): accepted, oracle %S on %S" round kind e text
    | Ok _, Error g -> Alcotest.failf "round %d (kind %d): %S, oracle accepted %S" round kind g text);
    ignore (Engine.drain engine);
    List.iter
      (fun (id, _) ->
        ignore (get (Engine.take_results engine ~id ~count:max_int)))
      sessions
  done;
  (* A header that changes between uploads of one session, and one whose
     bytes match the previous header but not its token boundary: the byte
     after the final [$end] is not whitespace, so [$end] is not a token
     there. *)
  let doc = (List.assoc "RAM" docs).(0) in
  let h = header_end doc in
  let header = String.sub doc 0 h and body = String.sub doc h (String.length doc - h) in
  List.iter
    (fun (what, text) ->
      let expected = Upload_oracle.upload ~model_name:"RAM" (List.assoc "RAM" models) text in
      let before = Array.length (get (Engine.pending engine ~id:"ram2")) in
      let got = feed_chunks engine ~id:"ram2" [ text ] in
      let after = get (Engine.pending engine ~id:"ram2") in
      match (expected, got) with
      | Ok pairs, Ok n ->
          check_int (what ^ ": cycles") (Array.length pairs) n;
          if Array.sub after before n <> pairs then Alcotest.failf "%s: queued pairs differ" what
      | Error e, Error g -> check_string (what ^ ": error") e g
      | _ -> Alcotest.failf "%s: engine and oracle disagree" what)
    [ ("plain", doc);
      ("new timescale", "$timescale 1ps $end\n" ^ header ^ body);
      ("plain again", doc);
      ("glued to $end", header ^ "x" ^ body);
      ("$end then junk", header ^ "junk $end" ^ body);
      ("plain once more", doc) ];
  (* The mix the seed gives: every outcome occurs often. *)
  check_bool "accepted uploads" true (outcomes.(0) >= 100);
  check_bool "interface mismatches" true (outcomes.(1) >= 20);
  check_bool "parse errors" true (outcomes.(2) >= 50)

let test_idle_eviction () =
  let clock = ref 0. in
  let m = model_of "RAM" in
  let engine =
    Engine.create ~idle_timeout:10. ~now:(fun () -> !clock) [ ("RAM", m) ]
  in
  get (Engine.open_session engine ~id:"a" ~model:"RAM" ~mode:`Filter);
  get (Engine.open_session engine ~id:"b" ~model:"RAM" ~mode:`Sim);
  clock := 5.;
  check_int "touch b" 1 (get (Engine.submit engine ~id:"b" [| (None, 0.) |]));
  ignore (Engine.drain engine);
  clock := 12.;
  Alcotest.(check (list string)) "a evicted at 12s" [ "a" ] (Engine.evict_idle engine);
  check_bool "a gone" false (Engine.has_session engine "a");
  check_bool "b alive" true (Engine.has_session engine "b");
  check_int "evicted counted" 1 (Engine.stats engine).Engine.evicted;
  clock := 30.;
  Alcotest.(check (list string)) "b evicted at 30s" [ "b" ] (Engine.evict_idle engine);
  check_int "no sessions left" 0 (Engine.session_count engine)

(* A sim session losing sync is a per-session quality signal (WSP,
   resynchronization events), never an engine fault: feed a legitimate
   captured trace, then a burst of uniformly random propositions, then
   the legitimate trace again, and read the damage off session_stats. *)
let test_sim_wsp_resync () =
  let m = model_of "RAM" in
  let np = nprops m in
  let engine = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  get (Engine.open_session engine ~id:"w" ~model:"RAM" ~mode:`Sim);
  let text = Vcd.to_string (ram_trace ()) in
  let n1 = feed_vcd engine ~id:"w" text ~pieces:3 in
  ignore (Engine.drain engine);
  ignore (get (Engine.take_results engine ~id:"w" ~count:n1));
  let clean = get (Engine.session_stats engine ~id:"w") in
  check_int "clean cycles" n1 clean.Engine.cycles;
  let rng = Random.State.make [| 0xbad; 1 |] in
  let burst = Array.init 80 (fun _ -> (Some (Random.State.int rng np), 0.)) in
  check_int "burst enqueued" 80 (get (Engine.submit engine ~id:"w" burst));
  ignore (Engine.drain engine);
  let burst_results = get (Engine.take_results engine ~id:"w" ~count:80) in
  let n2 = feed_vcd engine ~id:"w" text ~pieces:2 in
  ignore (Engine.drain engine);
  let tail_results = get (Engine.take_results engine ~id:"w" ~count:n2) in
  let st = get (Engine.session_stats engine ~id:"w") in
  check_int "all cycles counted" (n1 + 80 + n2) st.Engine.cycles;
  check_bool "burst caused wrong instants" true
    (st.Engine.wrong_instants > clean.Engine.wrong_instants);
  check_bool "wsp positive" true (st.Engine.wsp > 0.);
  check_bool "wsp = wrong/cycles" true
    (Float.compare st.Engine.wsp
       (float_of_int st.Engine.wrong_instants /. float_of_int st.Engine.cycles)
    = 0);
  let desynced =
    Array.exists (fun (_, s) -> s = -1) burst_results
    || Array.exists (fun (_, s) -> s = -1) tail_results
  in
  let relocked = Array.exists (fun (_, s) -> s >= 0) tail_results in
  check_bool "burst desynchronized the stepper" true desynced;
  check_bool "stepper relocked on legit trace" true relocked;
  check_bool "resync events counted" true (st.Engine.resync_events >= 1)

(* ---------- checkpoint / kill / resume (shared harness) ---------- *)

let test_checkpoint_kill_resume () =
  let m = model_of "RAM" in
  let plan = mk_obs ~oseed:77 ~np:(nprops m) ~len:24 in
  let subject mode label =
    { Resume_harness.label;
      steps = Array.length plan;
      create =
        (fun () ->
          let e = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
          get (Engine.open_session e ~id:"ck" ~model:"RAM" ~mode);
          e);
      feed =
        (fun e i ->
          check_int "one cycle" 1
            (get (Engine.submit e ~id:"ck" [| (plan.(i), 0.) |]));
          ignore (Engine.drain e);
          Array.to_list (get (Engine.take_results e ~id:"ck" ~count:1)));
      save = (fun e -> get (Engine.checkpoint e ~id:"ck"));
      restore =
        (fun bytes ->
          let e = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
          get (Engine.restore_session e ~id:"ck" bytes);
          e);
      finish = (fun e -> get (Engine.session_stats e ~id:"ck")) }
  in
  let check_stats label (a : Engine.session_stats) (b : Engine.session_stats) =
    check_int (label ^ " cycles") a.Engine.cycles b.Engine.cycles;
    check_int (label ^ " wrong instants") a.Engine.wrong_instants
      b.Engine.wrong_instants;
    check_int (label ^ " resync events") a.Engine.resync_events
      b.Engine.resync_events;
    check_bool (label ^ " wsp") true (Float.compare a.Engine.wsp b.Engine.wsp = 0);
    check_bool
      (label ^ " log lik")
      true
      (Float.compare a.Engine.log_likelihood b.Engine.log_likelihood = 0)
  in
  List.iter
    (fun (mode, label) ->
      List.iter
        (fun kill_at ->
          let (eo, ef), (ao, af) =
            Resume_harness.run ?kill_at (subject mode label)
          in
          check_served
            ~what:(Printf.sprintf "%s resumed" label)
            (Array.of_list eo) (Array.of_list ao);
          check_stats label ef af;
          (* The straight run itself must equal offline inference. *)
          check_served
            ~what:(Printf.sprintf "%s straight" label)
            (offline_expected m mode plan)
            (Array.of_list eo))
        [ None; Some 1 ])
    [ (`Filter, "serve-filter"); (`Sim, "serve-sim") ];
  (* A corrupted checkpoint is an error, not a crash. *)
  let e = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  (match Engine.restore_session e ~id:"bad" "garbage bytes" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "garbage checkpoint accepted")

(* A sim checkpoint taken mid-desynchronization carries live bans,
   cursors and the desynced/entered-via bookkeeping; the restored twin
   must walk the identical path through the recovery. *)
let test_checkpoint_mid_desync () =
  let m = model_of "RAM" in
  let np = nprops m in
  let e = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  get (Engine.open_session e ~id:"s" ~model:"RAM" ~mode:`Sim);
  let text = Vcd.to_string (ram_trace ()) in
  let n1 = feed_vcd e ~id:"s" text ~pieces:1 in
  let rng = Random.State.make [| 0xdead; 5 |] in
  let burst = Array.init 40 (fun _ -> (Some (Random.State.int rng np), 0.)) in
  check_int "burst enqueued" 40 (get (Engine.submit e ~id:"s" burst));
  ignore (Engine.drain e);
  ignore (get (Engine.take_results e ~id:"s" ~count:(n1 + 40)));
  let mid = get (Engine.session_stats e ~id:"s") in
  check_bool "burst desynchronized" true (mid.Engine.resync_events > 0);
  let blob = get (Engine.checkpoint e ~id:"s") in
  get (Engine.restore_session e ~id:"s2" blob);
  let tail = mk_obs ~oseed:501 ~np ~len:50 in
  List.iter
    (fun id ->
      check_int "tail enqueued" 50
        (get (Engine.submit e ~id (Array.map (fun o -> (o, 0.)) tail))))
    [ "s"; "s2" ];
  ignore (Engine.drain e);
  let out = get (Engine.take_results e ~id:"s" ~count:50) in
  let out2 = get (Engine.take_results e ~id:"s2" ~count:50) in
  check_served ~what:"mid-desync twin" out out2;
  let st = get (Engine.session_stats e ~id:"s") in
  let st2 = get (Engine.session_stats e ~id:"s2") in
  check_int "twin cycles" st.Engine.cycles st2.Engine.cycles;
  check_int "twin wrong instants" st.Engine.wrong_instants
    st2.Engine.wrong_instants;
  check_int "twin resync events" st.Engine.resync_events
    st2.Engine.resync_events

(* ---------- hostile checkpoints (untrusted wire input) ---------- *)

(* Correctly framed blobs (right version, right digest) whose fields do
   not fit the model: every one must earn an [Error] — never daemon
   state, never an exception. *)
let frame payload =
  Printf.sprintf "%s\n%s\n%s" Engine.checkpoint_version
    (Digest.to_hex (Digest.string payload))
    payload

let test_hostile_checkpoints () =
  let m = model_of "RAM" in
  let e = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  let reject what payload =
    match Engine.restore_session e ~id:("h-" ^ what) (frame payload) with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "hostile checkpoint accepted: %s" what
  in
  let rows = Hmm.state_count m.Persist.hmm in
  let uniform n = String.concat "," (List.init n (fun _ -> "0.125")) in
  let filter_payload ~steps ~belief =
    Printf.sprintf
      {|{"model":"RAM","prev_inputs":null,"backend":"filter","steps":%d,"log_lik":-1.5,"belief":[%s]}|}
      steps belief
  in
  let sim_payload ?(cycles = 5) ?(wrong = 1) ?(bans = "[]") ~mode () =
    Printf.sprintf
      {|{"model":"RAM","prev_inputs":null,"backend":"sim","mode":%s,"sim_prev_inputs":null,"entered_via":null,"progressed":false,"cycles":%d,"wrong_instants":%d,"resync_events":0,"bans":%s}|}
      mode cycles wrong bans
  in
  (* The v1 format marshalled an OCaml value; its version line is
     refused outright — nothing ever Marshal-decodes wire bytes. *)
  (match
     Engine.restore_session e ~id:"v1"
       (Printf.sprintf "psm-serve-session 1\n%s\nx"
          (Digest.to_hex (Digest.string "x")))
   with
  | Error err -> check_bool "v1 names version" true (contains err "version")
  | Ok () -> Alcotest.fail "v1 Marshal checkpoint accepted");
  reject "belief too long" (filter_payload ~steps:3 ~belief:(uniform (rows + 1)));
  reject "belief too short" (filter_payload ~steps:3 ~belief:(uniform (max 1 (rows - 1))));
  reject "negative steps" (filter_payload ~steps:(-1) ~belief:(uniform rows));
  reject "negative belief mass"
    (filter_payload ~steps:3
       ~belief:(String.concat "," ("-0.5" :: List.init (rows - 1) (fun _ -> "0.5"))));
  reject "zero belief mass"
    (filter_payload ~steps:3
       ~belief:(String.concat "," (List.init rows (fun _ -> "0"))));
  reject "ban row out of range"
    (sim_payload ~mode:{|{"kind":"unstarted"}|} ~cycles:0 ~wrong:0
       ~bans:(Printf.sprintf "[[0,%d]]" rows) ());
  reject "negative ban row"
    (sim_payload ~mode:{|{"kind":"unstarted"}|} ~cycles:0 ~wrong:0
       ~bans:"[[-1,0]]" ());
  reject "desynced row out of range"
    (sim_payload ~mode:(Printf.sprintf {|{"kind":"desynced","row":%d}|} rows) ());
  reject "synced row out of range"
    (sim_payload
       ~mode:(Printf.sprintf {|{"kind":"synced","row":%d,"cursors":[[0,0]]}|} rows)
       ());
  reject "cursor alternative out of range"
    (sim_payload ~mode:{|{"kind":"synced","row":0,"cursors":[[99,0]]}|} ());
  reject "cursor position out of range"
    (sim_payload ~mode:{|{"kind":"synced","row":0,"cursors":[[0,99]]}|} ());
  reject "synced without cursors"
    (sim_payload ~mode:{|{"kind":"synced","row":0,"cursors":[]}|} ());
  reject "wrong_instants beyond cycles"
    (sim_payload ~mode:{|{"kind":"unstarted"}|} ~cycles:2 ~wrong:3 ());
  reject "sample interface mismatch"
    {|{"model":"RAM","prev_inputs":["1"],"backend":"filter","steps":0,"log_lik":0,"belief":[]}|};
  reject "unknown backend"
    {|{"model":"RAM","prev_inputs":null,"backend":"exec","steps":0}|};
  reject "unknown model"
    {|{"model":"nope","prev_inputs":null,"backend":"filter","steps":0,"log_lik":0,"belief":[]}|};
  (* Digest mismatch is caught before any field parsing. *)
  (match
     Engine.restore_session e ~id:"dg"
       (Printf.sprintf "%s\n%s\n%s" Engine.checkpoint_version
          (Digest.to_hex (Digest.string "other"))
          (filter_payload ~steps:0 ~belief:(uniform rows)))
   with
  | Error err -> check_bool "digest named" true (contains err "digest")
  | Ok () -> Alcotest.fail "digest mismatch accepted");
  (* A well-formed handcrafted blob (not produced by export) is fine. *)
  get
    (Engine.restore_session e ~id:"ok"
       (frame (filter_payload ~steps:0 ~belief:(uniform rows))));
  check_bool "engine unharmed" true (Engine.has_session e "ok");
  (* Parser hardening: a deeply nested frame is a parse error, not a
     stack overflow. *)
  (match Json.of_string (String.make 5_000 '[') with
  | Error err -> check_bool "depth named" true (contains err "deep")
  | Ok _ -> Alcotest.fail "unterminated nesting parsed");
  match Json.of_string (String.make 99 '[' ^ "0" ^ String.make 99 ']') with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "depth-99 value rejected: %s" err

(* ---------- the session's one sample front end in checkpoints ---------- *)

(* Older encoders wrote "sim_prev_inputs", the sim stepper's own copy of
   the previous sample, which the serve path always left null. Such a
   blob still restores and resumes bit-identically; a non-null value is
   refused, never silently dropped. A sim session stepped sample by
   sample keeps its previous sample in "prev_inputs" and resumes
   exactly. *)
let test_checkpoint_sim_prev_inputs () =
  let m = model_of "RAM" in
  let np = nprops m in
  let e = Engine.create ~idle_timeout:0. [ ("RAM", m) ] in
  get (Engine.open_session e ~id:"s" ~model:"RAM" ~mode:`Sim);
  let feed id obs =
    check_int (id ^ " enqueued") (Array.length obs)
      (get (Engine.submit e ~id (Array.map (fun o -> (o, 0.)) obs)))
  in
  feed "s" (mk_obs ~oseed:77 ~np ~len:60);
  ignore (Engine.drain e);
  ignore (get (Engine.take_results e ~id:"s" ~count:60));
  let blob = get (Engine.checkpoint e ~id:"s") in
  let payload =
    let nl = String.index blob '\n' in
    let nl = String.index_from blob (nl + 1) '\n' in
    String.sub blob (nl + 1) (String.length blob - nl - 1)
  in
  check_bool "encoder drops sim_prev_inputs" false (contains payload "sim_prev_inputs");
  (* The parent's field order: the field sat just before "entered_via". *)
  let with_field value =
    let key = {|,"entered_via":|} in
    let rec find i = if String.sub payload i (String.length key) = key then i else find (i + 1) in
    let at = find 0 in
    frame
      (String.sub payload 0 at ^ {|,"sim_prev_inputs":|} ^ value
      ^ String.sub payload at (String.length payload - at))
  in
  get (Engine.restore_session e ~id:"old" (with_field "null"));
  let tail = mk_obs ~oseed:78 ~np ~len:80 in
  feed "s" tail;
  feed "old" tail;
  ignore (Engine.drain e);
  check_served ~what:"parent-format twin"
    (get (Engine.take_results e ~id:"s" ~count:80))
    (get (Engine.take_results e ~id:"old" ~count:80));
  let st = get (Engine.session_stats e ~id:"s") and st2 = get (Engine.session_stats e ~id:"old") in
  check_int "twin cycles" st.Engine.cycles st2.Engine.cycles;
  check_int "twin wrong instants" st.Engine.wrong_instants st2.Engine.wrong_instants;
  check_int "twin resync events" st.Engine.resync_events st2.Engine.resync_events;
  (match Engine.restore_session e ~id:"set" (with_field {|["0","1"]|}) with
  | Error err ->
      check_bool "typed checkpoint error" true
        (String.starts_with ~prefix:"checkpoint: " err && contains err "sim_prev_inputs")
  | Ok () -> Alcotest.fail "non-null sim_prev_inputs accepted");
  check_bool "refused blob opened no session" false (Engine.has_session e "set");
  (* Sample-level sim stepping through an encode/decode round trip. *)
  let trace = ram_trace ~length:300 () in
  let n = Functional_trace.length trace in
  let sample time = Functional_trace.sample trace ~time in
  let straight = Estimate.of_model ~mode:`Sim m in
  let expected = Array.init n (fun time -> Estimate.step_sample straight (sample time)) in
  let first = Estimate.of_model ~mode:`Sim m in
  let cut = n / 2 in
  let head = Array.init cut (fun time -> Estimate.step_sample first (sample time)) in
  let exported = Estimate.export first in
  check_bool "sim session exports its previous sample" true
    (exported.Estimate.portable_prev_inputs <> None);
  let resumed =
    match Psm_serve.Checkpoint.decode (Psm_serve.Checkpoint.encode ~model:"RAM" exported) with
    | Error err -> Alcotest.fail err
    | Ok (_, portable) -> get (Estimate.import m portable)
  in
  let rest = Array.init (n - cut) (fun k -> Estimate.step_sample resumed (sample (cut + k))) in
  check_served ~what:"sample-level sim resumed" expected (Array.append head rest)

(* ---------- the daemon: socket-level fault injection ---------- *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let rpc c line =
  send c line;
  input_line c.ic

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let req name fields = Json.to_string (Json.Obj (("op", Json.Str name) :: fields))

let observe_req ~session obs =
  req "observe"
    [ ("session", Json.Str session);
      ( "props",
        Json.List
          (Array.to_list
             (Array.map
                (function
                  | Some p -> Json.Num (float_of_int p) | None -> Json.Null)
                obs)) ) ]

let response_ok r =
  match J.member "ok" (J.of_string r) with
  | J.Bool b -> b
  | _ -> Alcotest.failf "response lacks ok: %s" r

let served_of_response r =
  let j = J.of_string r in
  let powers = List.map J.to_float (J.to_list (J.member "power" j)) in
  let states = List.map J.to_int (J.to_list (J.member "states" j)) in
  Array.of_list (List.map2 (fun p s -> (p, s)) powers states)

(* A live daemon on a Unix socket, torn down through the protocol's own
   shutdown op so the select loop exits from its request path. *)
let with_server ?(models = [ "RAM" ]) f =
  let path = Filename.temp_file "psm-serve" ".sock" in
  Sys.remove path;
  let srv =
    Server.create ~idle_timeout:0. ~listen:(`Unix path)
      (List.map (fun name -> (name, model_of name)) models)
  in
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      (if not (Server.shutdown_requested srv) then
         try
           let c = connect path in
           ignore (rpc c (req "shutdown" []));
           disconnect c
         with _ -> Server.request_shutdown srv);
      Domain.join d;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_server_faults () =
  with_server (fun path ->
      let c = connect path in
      (* A malformed frame poisons only itself. *)
      let r = rpc c "{\"op\":" in
      check_bool "malformed rejected" false (response_ok r);
      check_bool "malformed error named" true
        (contains (J.to_string (J.member "error" (J.of_string r))) "malformed");
      check_bool "same connection still serves" true
        (response_ok (rpc c (req "hello" [])));
      (* A deeply nested frame is a per-request parse error, not a
         daemon-killing stack overflow. *)
      check_bool "deep nesting rejected" false
        (response_ok (rpc c (String.make 10_000 '[')));
      check_bool "daemon survives deep nesting" true
        (response_ok (rpc c (req "hello" [])));
      (* Unknown op, missing fields: still per-request errors. *)
      check_bool "unknown op rejected" false (response_ok (rpc c (req "nope" [])));
      check_bool "open without model rejected" false
        (response_ok (rpc c (req "open" [ ("session", Json.Str "x") ])));
      (* A session survives its client's abrupt disconnect: continue it
         from a second connection and land exactly on the offline
         stream for the concatenated observations. *)
      let m = model_of "RAM" in
      let obs = mk_obs ~oseed:55 ~np:(nprops m) ~len:60 in
      let half = 30 in
      check_bool "open d" true
        (response_ok
           (rpc c
              (req "open"
                 [ ("session", Json.Str "d");
                   ("model", Json.Str "RAM");
                   ("mode", Json.Str "filter") ])));
      let first =
        served_of_response (rpc c (observe_req ~session:"d" (Array.sub obs 0 half)))
      in
      disconnect c;
      let c2 = connect path in
      let second =
        served_of_response
          (rpc c2 (observe_req ~session:"d" (Array.sub obs half (60 - half))))
      in
      check_served ~what:"across disconnect"
        (offline_expected m `Filter obs)
        (Array.append first second);
      check_bool "close d" true
        (response_ok (rpc c2 (req "close" [ ("session", Json.Str "d") ])));
      (* Checkpoint hex round-trips through the wire. *)
      check_bool "open r" true
        (response_ok
           (rpc c2
              (req "open"
                 [ ("session", Json.Str "r"); ("model", Json.Str "RAM") ])));
      ignore (rpc c2 (observe_req ~session:"r" (Array.sub obs 0 10)));
      let ck =
        J.to_string
          (J.member "checkpoint"
             (J.of_string (rpc c2 (req "checkpoint" [ ("session", Json.Str "r") ]))))
      in
      check_bool "restore under new id" true
        (response_ok
           (rpc c2
              (req "restore"
                 [ ("session", Json.Str "r2");
                   ("model", Json.Str "RAM");
                   ("checkpoint", Json.Str ck) ])));
      let tail_r =
        served_of_response
          (rpc c2 (observe_req ~session:"r" (Array.sub obs 10 20)))
      in
      let tail_r2 =
        served_of_response
          (rpc c2 (observe_req ~session:"r2" (Array.sub obs 10 20)))
      in
      check_served ~what:"restored session" tail_r tail_r2;
      disconnect c2)

(* A client that never sends a newline cannot grow the daemon's input
   buffer without bound: past the line limit it gets an error and its
   connection is closed; the daemon keeps serving others. *)
let test_server_line_bound () =
  with_server (fun path ->
      let c = connect path in
      (* A daemon that never answers fails the test instead of hanging it. *)
      Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 30.;
      check_bool "hello first" true (response_ok (rpc c (req "hello" [])));
      output_string c.oc (String.make ((16 * 1024 * 1024) + 1) 'x');
      flush c.oc;
      let r = input_line c.ic in
      check_bool "oversized line rejected" false (response_ok r);
      check_bool ("limit named: " ^ r) true (contains r "longer than");
      (match input_line c.ic with
      | exception End_of_file -> ()
      | line -> Alcotest.failf "connection left open: %s" line);
      disconnect c;
      let c2 = connect path in
      check_bool "daemon still serves" true (response_ok (rpc c2 (req "hello" [])));
      disconnect c2)

(* ---------- golden protocol transcripts ---------- *)

(* One scripted client conversation per bundled IP, pinned request line
   by response line. Floats cross the wire as shortest round-trip
   decimals, so the baselines are exact strings. Checkpoint hex is
   deliberately not in the script: the resume semantics and hostile
   rejection have dedicated tests, the numeric protocol surface is
   what the transcript pins.
   Regenerate with PSM_REGEN_GOLDEN=1 dune runtest. *)

let transcript_ips = [ "RAM"; "MultSum"; "AES"; "Camellia"; "FIFO" ]

let regen_requested () =
  match Sys.getenv_opt "PSM_REGEN_GOLDEN" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let read_dir () = List.find_opt Sys.file_exists [ "golden"; "test/golden" ]

let regen_dir () =
  if Sys.file_exists "../../../dune-project" then "../../../test/golden"
  else if Sys.file_exists "dune-project" then "test/golden"
  else "golden"

(* Deterministic observation scripts: a fixed pattern folded over the
   model's own vocabulary size. *)
let scripted_obs ~np ~len ~phase =
  Array.init len (fun i ->
      if (i + phase) mod 7 = 3 then None else Some (((i * 3) + phase) mod np))

let transcript_script ip =
  let np = nprops (model_of ip) in
  [ req "hello" [];
    req "open"
      [ ("session", Json.Str "t1");
        ("model", Json.Str ip);
        ("mode", Json.Str "filter") ];
    observe_req ~session:"t1" (scripted_obs ~np ~len:12 ~phase:0);
    req "open"
      [ ("session", Json.Str "t2"); ("model", Json.Str ip); ("mode", Json.Str "sim") ];
    observe_req ~session:"t2" (scripted_obs ~np ~len:12 ~phase:2);
    observe_req ~session:"t1" (scripted_obs ~np ~len:8 ~phase:5);
    req "stats" [];
    req "close" [ ("session", Json.Str "t1") ];
    req "close" [ ("session", Json.Str "t2") ] ]

let run_transcript ip =
  with_server ~models:[ ip ] (fun path ->
      let c = connect path in
      let pairs = List.map (fun line -> (line, rpc c line)) (transcript_script ip) in
      disconnect c;
      pairs)

let transcript_path dir ip = Filename.concat dir ("serve_" ^ ip ^ ".json")

let write_transcript ip pairs =
  let dir = regen_dir () in
  if not (Sys.file_exists dir) then
    Alcotest.failf "golden regen: directory %s not found (run under dune)" dir;
  let path = transcript_path dir ip in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let out fmt = Printf.ksprintf (output_string oc) fmt in
      out "{\n  \"ip\": %S,\n  \"transcript\": [\n" ip;
      List.iteri
        (fun i (request, response) ->
          out "    { \"request\": %s,\n      \"response\": %s }%s\n"
            (Json.to_string (Json.Str request))
            (Json.to_string (Json.Str response))
            (if i = List.length pairs - 1 then "" else ","))
        pairs;
      out "  ]\n}\n");
  Printf.printf "regenerated %s\n" path

let check_transcript ip pairs =
  let dir =
    match read_dir () with
    | Some d -> d
    | None -> Alcotest.failf "golden directory not found from %s" (Sys.getcwd ())
  in
  let path = transcript_path dir ip in
  if not (Sys.file_exists path) then
    Alcotest.failf "%s missing - regenerate with PSM_REGEN_GOLDEN=1 dune runtest"
      path;
  let g = J.of_file path in
  check_string (ip ^ " transcript names its IP") ip (J.to_string (J.member "ip" g));
  let rows = J.to_list (J.member "transcript" g) in
  check_int (ip ^ " transcript length") (List.length rows) (List.length pairs);
  List.iteri
    (fun i (row, (request, response)) ->
      check_string
        (Printf.sprintf "%s request %d" ip i)
        (J.to_string (J.member "request" row))
        request;
      check_string
        (Printf.sprintf "%s response %d" ip i)
        (J.to_string (J.member "response" row))
        response)
    (List.combine rows pairs)

let run_transcript_case ip () =
  let pairs = run_transcript ip in
  List.iteri
    (fun i (_, response) ->
      if
        (not (response_ok response))
        && not (contains response "error")
      then Alcotest.failf "%s transcript step %d not ok: %s" ip i response)
    pairs;
  if regen_requested () then write_transcript ip pairs
  else check_transcript ip pairs

let suite =
  ( "serve",
    [ QCheck_alcotest.to_alcotest test_served_equals_offline;
      Alcotest.test_case "batched = loop" `Slow
        test_batched_equals_loop;
      Alcotest.test_case "engine fault injection" `Quick test_engine_faults;
      Alcotest.test_case "observe rejects non-finite or negative hd" `Quick
        test_observe_rejects_bad_hd;
      Alcotest.test_case "vcd upload bound" `Quick test_vcd_upload_bound;
      Alcotest.test_case "vcd typed header and gap errors" `Quick test_vcd_typed_errors;
      Alcotest.test_case "vcd upload mutations = parse-then-walk oracle" `Quick
        test_vcd_upload_mutations;
      Alcotest.test_case "vcd upload allocation and storage" `Quick test_vcd_upload_cost;
      Alcotest.test_case "sim tick allocates nothing per cycle" `Quick test_sim_tick_allocation;
      Alcotest.test_case "vcd faults + observe equivalence" `Slow
        test_vcd_faults_and_equivalence;
      Alcotest.test_case "idle eviction (injected clock)" `Quick
        test_idle_eviction;
      Alcotest.test_case "sim WSP / resync under garbage burst" `Slow
        test_sim_wsp_resync;
      Alcotest.test_case "checkpoint kill/resume (harness)" `Slow
        test_checkpoint_kill_resume;
      Alcotest.test_case "checkpoint mid-desync (bans/cursors)" `Slow
        test_checkpoint_mid_desync;
      Alcotest.test_case "hostile checkpoints rejected" `Quick
        test_hostile_checkpoints;
      Alcotest.test_case "checkpoint sim_prev_inputs compatibility" `Quick
        test_checkpoint_sim_prev_inputs;
      Alcotest.test_case "daemon fault injection over socket" `Slow
        test_server_faults;
      Alcotest.test_case "daemon closes on an oversized line" `Slow
        test_server_line_bound ]
    @ List.map
        (fun ip ->
          Alcotest.test_case
            (Printf.sprintf "golden transcript (%s)" ip)
            `Slow (run_transcript_case ip))
        transcript_ips )
