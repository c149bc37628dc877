(* serve-fleet: one in-process Engine serves the four trained IP models
   plus the 100+-state stress model to 1024 closed-loop sessions. Each
   session gets its next wave of cycles only after it has taken the
   results of the previous one. One session in eight uploads raw VCD
   through vcd_chunk; the rest submit pre-classified observations. *)

open Common
module Engine = Psm_serve.Engine
module Estimate = Psm_flow.Estimate
module Persist = Psm_flow.Persist
module Ft = Psm_trace.Functional_trace
module Table = Psm_mining.Prop_trace.Table

let sessions = 1024
let cycles = 2000
let wave = 64
let waves = (cycles + wave - 1) / wave
let models = ips @ [ "STRESS" ]

type feed =
  | Submit of (int option * float) array  (** the model's observation pool *)
  | Vcd of string array  (** one VCD document per wave *)

type session = {
  id : string;
  model : string;
  mode : Estimate.mode;
  feed : feed;
  offset : int;  (** first cycle of the session's window in its pool *)
  reference : float array option;  (** reference power, IP Filter sessions *)
  sampled : bool;  (** checked cycle by cycle against offline Estimate *)
}

let classify table trace =
  let hd = Ft.input_hamming_series trace in
  Array.init (Ft.length trace) (fun t -> (Table.classify table (Ft.sample trace ~time:t), hd.(t)))

(* BENCH_9's stress plan: random known propositions, one in eight
   unknown. *)
let stress_pool ~seed nprops =
  let rng = Random.State.make [| seed; role_code Serve_plan |] in
  Array.init Setup.serve_heldout_cycles (fun _ ->
      if Random.State.int rng 8 = 0 then (None, 0.) else (Some (Random.State.int rng nprops), 0.))

let wave_len w = min wave (cycles - (w * wave))

(* Session [s]: slot k = s mod 8 picks the role; slot 0 is the stress
   model, slots 1-7 an IP model (rotating every 8 sessions), Filter on
   odd slots and Sim on even ones, and slot 7 (one session in eight)
   uploads VCD in alternating modes. *)
let plan ~seed ~loaded ~heldouts =
  let pools = Hashtbl.create 8 and docs = Hashtbl.create 16 in
  List.iter
    (fun (ip, (f, _)) ->
      Hashtbl.replace pools ip (classify (List.assoc ip loaded).Persist.table f))
    heldouts;
  Hashtbl.replace pools "STRESS"
    (stress_pool ~seed (Table.prop_count (List.assoc "STRESS" loaded).Persist.table));
  let span = Setup.serve_heldout_cycles - cycles in
  let vcd_docs ip offset =
    match Hashtbl.find_opt docs (ip, offset) with
    | Some d -> d
    | None ->
        let f, _ = List.assoc ip heldouts in
        let d =
          Array.init waves (fun w ->
              let lo = offset + (w * wave) in
              Psm_trace.Vcd.to_string (Ft.sub f ~start:lo ~stop:(lo + wave_len w - 1)))
        in
        Hashtbl.replace docs (ip, offset) d;
        d
  in
  let seen = Hashtbl.create 32 in
  List.init sessions (fun s ->
      let k = s mod 8 and round = s / 8 in
      let model = if k = 0 then "STRESS" else List.nth ips (round mod 4) in
      let mode =
        if k = 0 || k = 7 then (if round / 4 mod 2 = 0 then `Filter else `Sim)
        else if k mod 2 = 1 then `Filter
        else `Sim
      in
      let is_vcd = k = 7 in
      (* VCD sessions share four windows per IP, so their documents are
         generated once. *)
      let offset = if is_vcd then round / 8 mod 4 * (span / 4) else s * 997 mod span in
      let feed = if is_vcd then Vcd (vcd_docs model offset) else Submit (Hashtbl.find pools model) in
      let reference =
        match (model, mode) with
        | "STRESS", _ | _, `Sim -> None
        | ip, `Filter ->
            let _, p = List.assoc ip heldouts in
            Some (Array.init cycles (fun t -> Psm_trace.Power_trace.get p (offset + t)))
      in
      let group = (model, mode, is_vcd) in
      let n = Option.value ~default:0 (Hashtbl.find_opt seen group) in
      Hashtbl.replace seen group (n + 1);
      { id = Printf.sprintf "s%04d" s; model; mode; feed; offset; reference; sampled = n < 2 })

(* What a session observes, as the engine classifies it: submitted pairs
   verbatim; VCD waves parsed one document at a time. *)
let observations loaded s =
  match s.feed with
  | Submit pool -> Array.sub pool s.offset cycles
  | Vcd docs ->
      let table = (List.assoc s.model loaded).Persist.table in
      Array.concat
        (Array.to_list
           (Array.map (fun d -> classify table (Psm_trace.Vcd.parse d).Psm_trace.Vcd.trace) docs))

let offline loaded s =
  let est = Estimate.of_model ~mode:s.mode (List.assoc s.model loaded) in
  Array.map (fun (o, hd) -> Estimate.step est ~hd o) (observations loaded s)

type pass_result = {
  wall : float;
  delivered : int;
  ticks : float list;  (** seconds per tick that advanced a session *)
  served : (string, (float * int) array) Hashtbl.t;  (** sampled sessions *)
  mre : float;
  mre_ip : float list;  (** per IP, in [ips] order *)
}

let serve_pass ~loaded plan =
  let engine = Engine.create ~idle_timeout:0. loaded in
  List.iter
    (fun s -> ignore (expect ("open " ^ s.id) (Engine.open_session engine ~id:s.id ~model:s.model ~mode:s.mode)))
    plan;
  let served = Hashtbl.create 64 in
  let estimates = Hashtbl.create 512 in
  List.iter
    (fun s ->
      if s.sampled then Hashtbl.replace served s.id (Array.make cycles (0., 0));
      if s.reference <> None then Hashtbl.replace estimates s.id (Array.make cycles 0.))
    plan;
  let ticks = ref [] and delivered = ref 0 in
  let t0 = now () in
  for w = 0 to waves - 1 do
    let lo = w * wave and len = wave_len w in
    List.iter
      (fun s ->
        let enqueued =
          match s.feed with
          | Submit pool ->
              Layers.time "serve.submit_s" (fun () ->
                  Engine.submit engine ~id:s.id (Array.sub pool (s.offset + lo) len))
          | Vcd docs ->
              let d = docs.(w) in
              let half = String.length d / 2 in
              Layers.time "serve.vcd_chunk_s" (fun () ->
                  match Engine.vcd_chunk engine ~id:s.id ~chunk:(String.sub d 0 half) ~last:false with
                  | Error _ as e -> e
                  | Ok _ ->
                      Engine.vcd_chunk engine ~id:s.id
                        ~chunk:(String.sub d half (String.length d - half))
                        ~last:true)
        in
        match expect ("feed " ^ s.id) enqueued with
        | Some n -> if n <> len then fail (Printf.sprintf "%s enqueued %d of wave %d" s.id n w)
        | None -> ())
      plan;
    let rec drain () =
      let t = now () in
      let advanced = Layers.time ~alloc:"hmm.alloc_words" "serve.tick_s" (fun () -> Engine.tick engine) in
      if advanced > 0 then begin
        ticks := (now () -. t) :: !ticks;
        drain ()
      end
    in
    drain ();
    List.iter
      (fun s ->
        match
          expect ("take " ^ s.id)
            (Layers.time "serve.take_s" (fun () -> Engine.take_results engine ~id:s.id ~count:len))
        with
        | Some r ->
            if Array.length r <> len then fail (Printf.sprintf "%s short results in wave %d" s.id w);
            delivered := !delivered + Array.length r;
            (match Hashtbl.find_opt served s.id with
            | Some a -> Array.blit r 0 a lo (Array.length r)
            | None -> ());
            (match Hashtbl.find_opt estimates s.id with
            | Some a -> Array.iteri (fun i (p, _) -> a.(lo + i) <- p) r
            | None -> ())
        | None -> ())
      plan
  done;
  let wall = now () -. t0 in
  (* est_mre: per IP, the mean MRE of its Filter sessions; then the mean
     over the IPs. *)
  let per_ip =
    List.map
      (fun ip ->
        let mres =
          List.filter_map
            (fun s ->
              match s.reference with
              | Some reference when s.model = ip ->
                  Some
                    (Psm_hmm.Accuracy.of_estimate
                       ~reference:(Psm_trace.Power_trace.of_array reference)
                       ~estimate:(Hashtbl.find estimates s.id) ~wsp:0.)
                      .Psm_hmm.Accuracy.mre
              | _ -> None)
            plan
        in
        List.fold_left ( +. ) 0. mres /. float_of_int (List.length mres))
      ips
  in
  if !Layers.tracing then begin
    let st = Engine.stats engine in
    Layers.add "serve.ticks" (float_of_int st.Engine.ticks);
    Layers.add "serve.sweeps" (float_of_int st.Engine.sweeps);
    Layers.add "hmm.cycles" (float_of_int st.Engine.cycles_served);
    List.iter
      (fun s ->
        if s.mode = `Sim && s.model <> "STRESS" then
          match Engine.session_stats engine ~id:s.id with
          | Ok ss ->
              Layers.add "hmm.sim_cycles" (float_of_int ss.Engine.cycles);
              Layers.add "hmm.wrong_instants" (float_of_int ss.Engine.wrong_instants);
              Layers.add "hmm.resync_events" (float_of_int ss.Engine.resync_events)
          | Error _ -> ())
      plan
  end;
  { wall;
    delivered = !delivered;
    ticks = !ticks;
    served;
    mre = 100. *. List.fold_left ( +. ) 0. per_ip /. float_of_int (List.length per_ip);
    mre_ip = List.map (fun m -> 100. *. m) per_ip }

let same_results a b =
  Array.for_all2
    (fun (pa, sa) (pb, sb) -> sa = sb && Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
    a b

let run ~dir ~seed ~seconds ~trace =
  let t_load = now () in
  let loaded = List.map (fun m -> (m, Persist.load_file (Setup.model_path dir m))) models in
  let load_s = now () -. t_load in
  let model_bytes =
    List.fold_left (fun n m -> n + (Unix.stat (Setup.model_path dir m)).Unix.st_size) 0 models
  in
  let heldouts =
    List.map
      (fun ip ->
        let h = Psm_flow.Flow.load_vcd (Setup.heldout_path dir ip) in
        (ip, (h.Psm_flow.Flow.functional, h.Psm_flow.Flow.power)))
      ips
  in
  let plan = plan ~seed ~loaded ~heldouts in
  (* Warm-up: untimed; every sampled session of every (model, mode, feed)
     group must match offline Estimate bit for bit. *)
  let warm = serve_pass ~loaded plan in
  let peak = peak_heap_mb () in
  List.iter
    (fun s ->
      if s.sampled then
        check
          (Printf.sprintf "%s (%s, %s): served results equal offline Estimate" s.id s.model
             (match s.mode with `Filter -> "Filter" | `Sim -> "Sim"))
          (same_results (Hashtbl.find warm.served s.id) (offline loaded s)))
    plan;
  let pass () =
    let r = serve_pass ~loaded plan in
    check "serve pass delivers every session-cycle" (r.delivered = sessions * cycles);
    Hashtbl.iter
      (fun id a -> check (id ^ ": pass serves the warm-up results") (same_results a (Hashtbl.find warm.served id)))
      r.served;
    check "serve pass reproduces the warm-up est_mre" (r.mre = warm.mre);
    r
  in
  let timed = timed_passes ~seconds pass in
  let passes = List.map fst timed and scales = List.map snd timed in
  let wall_rates = List.map (fun r -> float_of_int r.delivered /. r.wall) passes in
  (* Rates at the host's reference speed (see [timed_passes]). *)
  let rates = List.map2 ( /. ) wall_rates scales in
  let ticks = List.concat_map (fun r -> r.ticks) passes in
  let ms q = 1e3 *. percentile ticks q in
  Printf.printf "serve-fleet: %d timed passes, %d sessions x %d cycles, waves of %d, %d ticks\n"
    (List.length passes) sessions cycles wave (List.length ticks);
  report_metric "serve_cycles_per_s" "cycles/s" rates;
  report_metric "wall_serve_cycles_per_s" "cycles/s" wall_rates;
  report_metric ~value:(probe_s scales) "host.probe_s" "s"
    (List.map (fun s -> Host.reference_s /. s) scales);
  report_metric "est_mre" "%" [ warm.mre ];
  List.iter2 (fun ip m -> report_metric ("est_mre." ^ ip) "%" [ m ]) ips warm.mre_ip;
  report_metric "pass_s" "s" (List.map (fun r -> r.wall) passes);
  Printf.printf "  %-28s %14.6g %-9s (%d ticks)\n  %-28s %14.6g %-9s (%d ticks)\n%!"
    "serve_tick_p50_ms" (ms 0.5) "ms" (List.length ticks) "serve_tick_p99_ms" (ms 0.99) "ms"
    (List.length ticks);
  let walls = List.map (fun r -> r.wall) passes in
  let untraced =
    [ ("cycles_per_s", median rates);
      ("wall_cycles_per_s", median wall_rates);
      ("host.probe_s", probe_s scales);
      ("est_mre", warm.mre);
      ("peak_heap_mb", peak);
      ("pass_s", median walls);
      ("serve.tick_p50_ms", ms 0.5);
      ("serve.tick_p99_ms", ms 0.99) ]
  in
  if trace then begin
    Layers.tracing := true;
    let rejected0 = !rejected in
    let traced () =
      Layers.reset ();
      Layers.set "flow.persist_load_s" load_s;
      Layers.set "flow.model_bytes" (float_of_int model_bytes);
      let r = serve_pass ~loaded plan in
      List.iter
        (fun (ip, (f, _)) ->
          let runs = Psm_trace.Runs.count (Ft.runs f) in
          Layers.set ("trace.runs_per_cycle." ^ ip) (float_of_int runs /. float_of_int (Ft.length f));
          Layers.add "trace.runs" (float_of_int runs);
          Layers.add "trace.cycles" (float_of_int (Ft.length f)))
        heldouts;
      r.wall
    in
    let traced_walls = List.map fst (timed_passes ~seconds traced) in
    Layers.set "serve.rejected" (float_of_int (!rejected - rejected0));
    summarize_traced
      ~wall:(List.nth traced_walls (List.length traced_walls - 1))
      ~traced_walls ~untraced_walls:walls
      ~attributed:[ "serve.submit_s"; "serve.vcd_chunk_s"; "serve.tick_s"; "serve.take_s" ];
    record_alloc_per_cycle (fun () -> ignore (serve_pass ~loaded plan))
  end;
  untraced
