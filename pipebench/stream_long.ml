(* stream-long: each IP's long-TS suite streamed through
   Stream_train.train_stream with the defaults `psmgen train-stream` uses
   (Full provenance, default watermark), then the streamed model
   estimates a held-out trace. *)

open Common
module Flow = Psm_flow.Flow
module Stream_train = Psm_flow.Stream_train
module Trainer = Stream_train.Trainer
module Multi_sim = Psm_hmm.Multi_sim
module Vcd = Psm_trace.Vcd
module Psm = Psm_core.Psm

type input = {
  ip : string;
  paths : string list;
  heldout : Psm_trace.Functional_trace.t;
  reference : Psm_trace.Power_trace.t;
}

let load dir =
  List.map
    (fun ip ->
      let h = Flow.load_vcd (Setup.heldout_path dir ip) in
      { ip;
        paths = List.init 4 (Setup.vcd_path dir "long" ip);
        heldout = h.Flow.functional;
        reference = h.Flow.power })
    ips

(* What two streamed models must share to count as the same result. *)
let fingerprint (r : Stream_train.result) =
  (r.Stream_train.cycles, Psm.state_count r.Stream_train.optimized,
   r.Stream_train.transition_counts, r.Stream_train.emission_counts)

(* MRE of the streamed model on the held-out trace. *)
let estimate input (r : Stream_train.result) =
  let result = Multi_sim.simulate r.Stream_train.hmm input.heldout in
  (Psm_hmm.Accuracy.of_result ~reference:input.reference result).Psm_hmm.Accuracy.mre

(* ---------- traced replay through the Trainer push API ---------- *)

(* The uniform-grid resampler train_stream applies at period 1: gaps
   between VCD timestamps repeat the held sample. *)
type resampler = {
  push : Psm_bits.Bits.t array -> power:float -> unit;
  mutable next : int;
  mutable held : (Psm_bits.Bits.t array * float) option;
  mutable tail : bool;
}

let resample r ~time sample ~power =
  match r.held with
  | None ->
      r.push sample ~power;
      r.next <- time + 1;
      r.held <- Some (Array.copy sample, power)
  | Some (held, held_power) ->
      while r.next < time do
        r.push held ~power:held_power;
        r.next <- r.next + 1
      done;
      if r.next = time then begin
        r.push sample ~power;
        r.next <- r.next + 1;
        r.tail <- false
      end
      else r.tail <- true;
      r.held <- Some (Array.copy sample, power)

let resample_finish r =
  match r.held with Some (held, p) when r.tail -> r.push held ~power:p | _ -> ()

(* Same two passes as train_stream, with the time inside Trainer calls
   split from the time Vcd.stream spends reading. *)
let replay input =
  let trainer = ref None in
  let get () = Option.get !trainer in
  let in_push = ref 0. and push_alloc = ref 0. in
  (* Per-sample bracketing of Trainer.push, as Layers.time does it. *)
  let push sample ~power =
    let t = get () in
    if !Layers.counting_alloc then begin
      let w0 = Layers.alloc_words () in
      Trainer.push t sample ~power;
      let w1 = Layers.alloc_words () in
      push_alloc := !push_alloc +. (w1 -. w0 -. Lazy.force Layers.alloc_overhead)
    end
    else begin
      let t0 = now () in
      Trainer.push t sample ~power;
      in_push := !in_push +. (now () -. t0)
    end
  in
  let bytes = ref 0 in
  let pass () =
    in_push := 0.;
    push_alloc := 0.;
    let t0 = now () in
    List.iter
      (fun path ->
        let ic = open_in path in
        let stats =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let r = { push; next = 0; held = None; tail = false } in
              let stats =
                Vcd.stream (Psm_trace.Reader.of_channel ic)
                  ~init:(fun h ->
                    if Option.is_none !trainer then trainer := Some (Trainer.create h.Vcd.interface))
                  ~sample:(fun ~time s ~power -> resample r ~time s ~power)
              in
              resample_finish r;
              stats)
        in
        bytes := !bytes + stats.Psm_trace.Reader.bytes;
        let t0 = now () in
        Trainer.end_trace (get ());
        in_push := !in_push +. (now () -. t0))
      input.paths;
    let wall = now () -. t0 in
    Layers.add "trace.ingest_s" (wall -. !in_push);
    wall
  in
  let mine_wall = pass () in
  Layers.add "mining.mine_s" !in_push;
  Layers.add "mining.alloc_words" !push_alloc;
  let finish_mining_s = now () in
  Trainer.finish_mining (get ());
  let finish_mining_s = now () -. finish_mining_s in
  Layers.add "mining.mine_s" finish_mining_s;
  Layers.add "flow.stream_mine_pass_s" (mine_wall +. finish_mining_s);
  let train_wall = pass () in
  Layers.add "core.generate_s" !in_push;
  let t0 = now () in
  let r = Trainer.finish (get ()) in
  let finish_s = now () -. t0 in
  (* Trainer.finish runs optimize, HMM build and the analyzer in one
     call; its own timings split the analyzer off. *)
  let analyze_s = r.Stream_train.timings.Flow.analyze_s in
  Layers.add "analysis.final_s" analyze_s;
  Layers.set ("analysis.final_s." ^ input.ip) analyze_s;
  Layers.add "core.combine_s" (finish_s -. analyze_s);
  Layers.add "flow.stream_train_pass_s" (train_wall +. finish_s);
  Layers.add "flow.stream_compactions" (float_of_int r.Stream_train.compactions);
  Layers.add "trace.bytes" (float_of_int !bytes);
  Layers.add "mining.cycles" (float_of_int r.Stream_train.cycles);
  Layers.add "mining.props" (float_of_int (Psm_mining.Prop_trace.Table.prop_count r.Stream_train.table));
  Layers.add "core.states" (float_of_int (Psm.state_count r.Stream_train.optimized));
  Layers.set ("core.states." ^ input.ip) (float_of_int (Psm.state_count r.Stream_train.optimized));
  Layers.add "analysis.errors"
    (float_of_int (List.length (Psm_analysis.Finding.errors r.Stream_train.analysis)));
  let result =
    Layers.time ~alloc:"hmm.alloc_words" "hmm.simulate_s" (fun () ->
        Multi_sim.simulate r.Stream_train.hmm input.heldout)
  in
  let n = Psm_trace.Functional_trace.length input.heldout in
  Layers.add "hmm.cycles" (float_of_int n);
  Layers.add "hmm.sim_cycles" (float_of_int n);
  Layers.add "hmm.wrong_instants" (float_of_int result.Multi_sim.wrong_instants);
  Layers.add "hmm.resync_events" (float_of_int result.Multi_sim.resync_events);
  r

let run ~dir ~seconds ~trace =
  let inputs = load dir in
  let train input =
    let t0 = now () in
    let r = Stream_train.train_stream input.paths in
    (r, now () -. t0)
  in
  (* Warm-up: untimed, and the pass whose outputs the self-checks test. *)
  let warm = List.map (fun i -> fst (train i)) inputs in
  let peak = peak_heap_mb () in
  List.iter2
    (fun input r ->
      check
        (Printf.sprintf "%s: streamed model has no Error findings" input.ip)
        (Psm_analysis.Finding.errors r.Stream_train.analysis = []))
    inputs warm;
  let fingerprints = List.map fingerprint warm in
  let multsum = (List.nth warm (ip_index "MultSum")).Stream_train.optimized in
  let mres = List.map2 estimate inputs warm in
  let pass () =
    let t0 = now () in
    let rs =
      List.map
        (fun input ->
          let r, s = train input in
          (r, s, estimate input r))
        inputs
    in
    let wall = now () -. t0 in
    List.iteri
      (fun k (r, _, mre) ->
        let ip = List.nth ips k in
        check (ip ^ ": pass restreams the warm-up model") (fingerprint r = List.nth fingerprints k);
        check (ip ^ ": streamed model estimates as in warm-up") (mre = List.nth mres k))
      rs;
    (wall, List.map (fun (r, s, _) -> (r.Stream_train.cycles, s)) rs)
  in
  let timed = timed_passes ~seconds pass in
  let passes = List.map fst timed and scales = List.map snd timed in
  (* The batch trainer on the same files must give an equivalent machine;
     MultSum is the cheapest IP to train in batch at this length. It runs
     after peak_heap_mb is read, so its traces stay out of it. *)
  let batch, _ = Flow.train_on_vcd_files (List.nth inputs (ip_index "MultSum")).paths in
  check "MultSum: streamed model is Verify.equiv to Flow.train_on_vcd_files"
    (Psm_verify.Verify.equiv batch.Flow.optimized multsum)
      .Psm_verify.Verify.equivalent;
  let sum = List.fold_left ( +. ) 0. in
  let cycles = float_of_int (List.fold_left (fun a (c, _) -> a + c) 0 (snd (List.hd passes))) in
  (* As in paper-train: the rate divides by the sum of per-IP medians of
     host-scaled times. *)
  let ip_times = List.mapi (fun k _ -> List.map (fun (_, rs) -> snd (List.nth rs k)) passes) ips in
  let rate = cycles /. sum (List.map (fun ts -> median (List.map2 ( *. ) ts scales)) ip_times) in
  let wall_rate = cycles /. sum (List.map median ip_times) in
  let rates = List.map2 (fun (_, rs) s -> cycles /. (s *. sum (List.map snd rs))) passes scales in
  let mre = 100. *. sum mres /. float_of_int (List.length mres) in
  let walls = List.map fst passes in
  Printf.printf "stream-long: %d timed passes over %s\n" (List.length passes) (String.concat ", " ips);
  report_metric ~value:rate "stream_train_cycles_per_s" "cycles/s" rates;
  report_metric ~value:wall_rate "wall_stream_train_cycles_per_s" "cycles/s"
    (List.map (fun (w, _) -> cycles /. w) passes);
  report_metric ~value:(probe_s scales) "host.probe_s" "s"
    (List.map (fun s -> Host.reference_s /. s) scales);
  report_metric "est_mre" "%" [ mre ];
  report_metric "pass_s" "s" walls;
  List.iter2 (fun ip ts -> report_metric ("train_stream_s." ^ ip) "s" ts) ips ip_times;
  let untraced =
    [ ("cycles_per_s", rate); ("wall_cycles_per_s", wall_rate); ("host.probe_s", probe_s scales);
      ("est_mre", mre); ("peak_heap_mb", peak); ("pass_s", median walls) ]
    @ List.map2 (fun ip ts -> ("flow.train_s." ^ ip, median ts)) ips ip_times
  in
  if trace then begin
    Layers.tracing := true;
    let traced () =
      Layers.reset ();
      let t0 = now () in
      let rs = List.map replay inputs in
      (now () -. t0, rs)
    in
    let traced_passes = List.map fst (timed_passes ~seconds traced) in
    let wall, rs = List.nth traced_passes (List.length traced_passes - 1) in
    List.iter2
      (fun (input, fp) r ->
        check (Printf.sprintf "%s: Trainer replay equals train_stream" input.ip) (fingerprint r = fp))
      (List.combine inputs fingerprints) rs;
    summarize_traced ~wall ~traced_walls:(List.map fst traced_passes) ~untraced_walls:walls
      ~attributed:
        [ "trace.ingest_s"; "mining.mine_s"; "core.generate_s"; "core.combine_s";
          "analysis.final_s"; "hmm.simulate_s" ];
    record_alloc_per_cycle (fun () -> ignore (List.map replay inputs));
    (* Runs of identical samples, counted outside the timed replay. *)
    List.iter
      (fun input ->
        let runs, cycles =
          List.fold_left
            (fun (r, c) path ->
              let f = (Flow.load_vcd path).Flow.functional in
              (r + Psm_trace.Runs.count (Psm_trace.Functional_trace.runs f),
               c + Psm_trace.Functional_trace.length f))
            (0, 0) input.paths
        in
        Layers.add "trace.runs" (float_of_int runs);
        Layers.add "trace.cycles" (float_of_int cycles);
        Layers.set ("trace.runs_per_cycle." ^ input.ip) (ratio (float_of_int runs) (float_of_int cycles)))
      inputs;
    Layers.set "trace.runs_per_cycle" (ratio (Layers.get "trace.runs") (Layers.get "trace.cycles"))
  end;
  untraced
