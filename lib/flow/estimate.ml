module Bits = Psm_bits.Bits
module Interface = Psm_trace.Interface
module Vocabulary = Psm_mining.Vocabulary
module Table = Psm_mining.Prop_trace.Table
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
  input_indexes : int list;
  mutable prev_inputs : Bits.t array option;
      (* sample-level filter stepping tracks its own input Hamming
         distances; the sim stepper tracks its own internally. *)
  mutable memo : (Bits.t array * int option) option;
      (* classification memo for [step_sample]'s filter arm: previous
         sample (private copy) and its classification. Pure cache, not
         part of portable checkpoints. *)
}

let same_sample a b = Array.length a = Array.length b && Array.for_all2 Bits.equal a b

let input_indexes_of (model : Persist.model) =
  let iface = Vocabulary.interface (Table.vocabulary model.Persist.table) in
  List.map fst (Interface.inputs iface)

let of_model ?filtering ~mode (model : Persist.model) =
  let backend =
    match mode with
    | `Sim ->
        (* Own transition state: this session's resynchronization bans
           must not leak into siblings sharing the model. *)
        Sim (Multi_sim.Stepper.create (Hmm.copy model.Persist.hmm))
    | `Filter ->
        let filt =
          match filtering with
          | Some f -> f
          | None -> Filtering.create model.Persist.hmm
        in
        Filter (filt, Filtering.Stream.make filt)
  in
  { model; backend; input_indexes = input_indexes_of model; prev_inputs = None; memo = None }

let mode t = match t.backend with Sim _ -> `Sim | Filter _ -> `Filter
let model t = t.model

let filter_state t =
  match t.backend with Sim _ -> None | Filter (f, s) -> Some (f, s)

(* The per-instant result once the belief has advanced: (power estimate,
   PSM state id). *)
let filter_result t filt s ~hd =
  let row = Filtering.Stream.map_state filt s in
  ( Filtering.Stream.power filt s ~hamming:hd,
    Hmm.state_of_row t.model.Persist.hmm row )

let step t ?(hd = 0.) obs =
  match t.backend with
  | Sim st -> Multi_sim.Stepper.step_classified st ~hamming:hd obs
  | Filter (filt, s) ->
      Filtering.Stream.step filt s obs;
      filter_result t filt s ~hd

let step_sample t sample =
  match t.backend with
  | Sim st -> Multi_sim.Stepper.step st sample
  | Filter (filt, s) -> (
      match t.memo with
      | Some (prev, obs) when Psm_trace.Runs.use () && same_sample prev sample ->
          (* Identical sample: Hamming 0 and the same classification; the
             numeric forward recursion still advances per cycle. *)
          Filtering.Stream.step filt s obs;
          filter_result t filt s ~hd:0.
      | _ ->
          let hd =
            match t.prev_inputs with
            | None -> 0.
            | Some prev ->
                float_of_int
                  (List.fold_left
                     (fun acc i -> acc + Bits.hamming_distance sample.(i) prev.(i))
                     0 t.input_indexes)
          in
          let copy = Array.copy sample in
          t.prev_inputs <- Some copy;
          let obs = Table.classify t.model.Persist.table sample in
          t.memo <- Some (copy, obs);
          Filtering.Stream.step filt s obs;
          filter_result t filt s ~hd)

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
    portable_prev_inputs =
      Option.map (Array.map Bits.to_binary_string) t.prev_inputs }

(* The sample-level tracker's previous inputs, validated against the
   model's interface (the serve path never populates it, but a
   checkpoint is untrusted input end to end). *)
let decode_prev_inputs (model : Persist.model) = function
  | None -> Ok None
  | Some strs ->
      let iface =
        Vocabulary.interface (Table.vocabulary model.Persist.table)
      in
      let arity = Interface.arity iface in
      if Array.length strs <> arity then
        Error
          (Printf.sprintf "previous sample has %d signals, interface has %d"
             (Array.length strs) arity)
      else begin
        try
          Ok
            (Some
               (Array.mapi
                  (fun i s ->
                    let b = Bits.of_binary_string s in
                    let w = (Interface.signal iface i).Psm_trace.Signal.width in
                    if Bits.width b <> w then
                      failwith
                        (Printf.sprintf
                           "previous sample signal %d is %d bits wide, \
                            expected %d"
                           i (Bits.width b) w);
                    b)
                  strs))
        with
        | Failure msg -> Error msg
        | Invalid_argument _ -> Error "previous sample is not a bit string"
      end

let import ?filtering (model : Persist.model) p =
  match decode_prev_inputs model p.portable_prev_inputs with
  | Error _ as e -> e
  | Ok prev_inputs -> (
      let finish backend =
        Ok
          { model;
            backend;
            input_indexes = input_indexes_of model;
            prev_inputs;
            memo = None }
      in
      match p.portable_backend with
      | Portable_sim sp -> (
          match
            Multi_sim.Stepper.import (Hmm.copy model.Persist.hmm) sp
          with
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
