module Sample_tracker = Psm_mining.Sample_tracker
module Hmm = Psm_hmm.Hmm
module Filtering = Psm_hmm.Filtering
module Multi_sim = Psm_hmm.Multi_sim

type mode = [ `Filter | `Sim ]

type backend =
  | Sim of Multi_sim.Stepper.t
  | Filter of Filtering.t * Filtering.Stream.state

type t = {
  model : Persist.model;
  backend : backend;
  tracker : Sample_tracker.t; (* [step_sample]'s front end, both backends *)
}

let plan_or_own plan (model : Persist.model) =
  match plan with Some p -> p | None -> Multi_sim.Plan.create model.Persist.hmm

let of_model ?filtering ?plan ~mode (model : Persist.model) =
  let backend =
    match mode with
    | `Sim ->
        (* The plan is read-only; this session's resynchronization bans
           live in its own stepper, never in the shared model. *)
        Sim (Multi_sim.Stepper.of_plan (plan_or_own plan model))
    | `Filter ->
        let filt =
          match filtering with
          | Some f -> f
          | None -> Filtering.create model.Persist.hmm
        in
        Filter (filt, Filtering.Stream.make filt)
  in
  { model; backend; tracker = Sample_tracker.create model.Persist.table }

let mode t = match t.backend with Sim _ -> `Sim | Filter _ -> `Filter
let model t = t.model

let filter_state t =
  match t.backend with Sim _ -> None | Filter (f, s) -> Some (f, s)

let sim_state t = match t.backend with Sim st -> Some st | Filter _ -> None

(* The per-instant result once the belief has advanced: (power estimate,
   PSM state id). *)
let filter_result t filt s ~hd =
  let row = Filtering.Stream.map_state filt s in
  ( Filtering.Stream.power filt s ~hamming:hd,
    Hmm.state_of_row t.model.Persist.hmm row )

(* One cycle on a proposition code (-1 = unknown behaviour). *)
let advance t ~hd code =
  match t.backend with
  | Sim st ->
      Multi_sim.Stepper.advance st ~hamming:hd code;
      (Multi_sim.Stepper.power st, Multi_sim.Stepper.state st)
  | Filter (filt, s) ->
      Filtering.Stream.step filt s code;
      filter_result t filt s ~hd

let step t ?(hd = 0.) obs = advance t ~hd (Option.value obs ~default:(-1))

let step_sample t sample =
  Sample_tracker.observe t.tracker sample;
  advance t ~hd:(Sample_tracker.hamming t.tracker) (Sample_tracker.code t.tracker)

let cycles t =
  match t.backend with
  | Sim st -> Multi_sim.Stepper.cycles st
  | Filter (_, s) -> Filtering.Stream.steps s

let wrong_instants t =
  match t.backend with
  | Sim st -> Multi_sim.Stepper.wrong_instants st
  | Filter _ -> 0

let resync_events t =
  match t.backend with
  | Sim st -> Multi_sim.Stepper.resync_events st
  | Filter _ -> 0

let wsp t =
  let n = cycles t in
  if n = 0 then 0. else float_of_int (wrong_instants t) /. float_of_int n

let log_likelihood t =
  match t.backend with
  | Sim _ -> 0.
  | Filter (_, s) -> Filtering.Stream.log_likelihood s

(* ---------- portable checkpoints ---------- *)

type portable_backend =
  | Portable_sim of Multi_sim.Stepper.portable
  | Portable_filter of Filtering.Stream.portable

type portable = {
  portable_backend : portable_backend;
  portable_prev_inputs : string array option;
}

let export t =
  { portable_backend =
      (match t.backend with
      | Sim st -> Portable_sim (Multi_sim.Stepper.export st)
      | Filter (_, s) -> Portable_filter (Filtering.Stream.export s));
    portable_prev_inputs = Sample_tracker.export t.tracker }

let import ?filtering ?plan (model : Persist.model) p =
  (* The sample-level tracker's previous inputs: the serve path never
     populates them, but a checkpoint is untrusted input end to end. *)
  let tracker = Sample_tracker.create model.Persist.table in
  match Sample_tracker.restore tracker p.portable_prev_inputs with
  | Error _ as e -> e
  | Ok () -> (
      let finish backend = Ok { model; backend; tracker } in
      match p.portable_backend with
      | Portable_sim sp -> (
          match Multi_sim.Stepper.import (plan_or_own plan model) sp with
          | Error e -> Error ("sim state: " ^ e)
          | Ok st -> finish (Sim st))
      | Portable_filter fp -> (
          let filt =
            match filtering with
            | Some f -> f
            | None -> Filtering.create model.Persist.hmm
          in
          match Filtering.Stream.import filt fp with
          | Error e -> Error ("filter state: " ^ e)
          | Ok s -> finish (Filter (filt, s))))
