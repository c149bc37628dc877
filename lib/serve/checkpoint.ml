module Estimate = Psm_flow.Estimate
module Stepper = Psm_hmm.Multi_sim.Stepper
module Stream = Psm_hmm.Filtering.Stream

(* Version 1 marshalled an OCaml value; [Marshal.from_string] on
   client-supplied bytes is unsafe (crafted input can corrupt the
   process), so v1 blobs are rejected outright rather than decoded. *)
let version = "psm-serve-session 2"

(* ---------- encoding ---------- *)

let num_int n = Json.Num (float_of_int n)

let pair_list pairs =
  Json.List
    (List.map (fun (a, b) -> Json.List [ num_int a; num_int b ]) pairs)

let strings_opt = function
  | None -> Json.Null
  | Some arr ->
      Json.List (Array.to_list (Array.map (fun s -> Json.Str s) arr))

let payload_of ~model (p : Estimate.portable) =
  let backend_fields =
    match p.Estimate.portable_backend with
    | Estimate.Portable_filter fp ->
        [ ("backend", Json.Str "filter");
          ("steps", num_int fp.Stream.p_steps);
          ("log_lik", Json.Num fp.Stream.p_log_lik);
          ( "belief",
            Json.List
              (Array.to_list
                 (Array.map (fun v -> Json.Num v) fp.Stream.p_belief)) ) ]
    | Estimate.Portable_sim sp ->
        [ ("backend", Json.Str "sim");
          ( "mode",
            match sp.Stepper.p_mode with
            | `Unstarted -> Json.Obj [ ("kind", Json.Str "unstarted") ]
            | `Synced (row, cursors) ->
                Json.Obj
                  [ ("kind", Json.Str "synced");
                    ("row", num_int row);
                    ("cursors", pair_list cursors) ]
            | `Desynced row ->
                Json.Obj
                  [ ("kind", Json.Str "desynced"); ("row", num_int row) ] );
          ( "entered_via",
            match sp.Stepper.p_entered_via with
            | None -> Json.Null
            | Some (src, dst) -> Json.List [ num_int src; num_int dst ] );
          ("progressed", Json.Bool sp.Stepper.p_progressed);
          ("cycles", num_int sp.Stepper.p_cycles);
          ("wrong_instants", num_int sp.Stepper.p_wrong_instants);
          ("resync_events", num_int sp.Stepper.p_resync_events);
          ("bans", pair_list sp.Stepper.p_bans) ]
  in
  Json.to_string
    (Json.Obj
       (("model", Json.Str model)
       :: ("prev_inputs", strings_opt p.Estimate.portable_prev_inputs)
       :: backend_fields))

let encode ~model portable =
  let payload = payload_of ~model portable in
  Printf.sprintf "%s\n%s\n%s" version
    (Digest.to_hex (Digest.string payload))
    payload

(* ---------- decoding ----------

   Shape-level validation only: every field must be present with the
   right JSON type (floats finite — the printer turns NaN/inf into
   [null], which fails here). Semantic validation against the target
   model (row bounds, belief length, sample widths, …) happens in
   {!Psm_flow.Estimate.import}, which rebuilds the session. *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error ("checkpoint: " ^ s)) fmt

let int_field j name =
  match Option.bind (Json.member name j) Json.to_int with
  | Some v -> Ok v
  | None -> err "missing or non-integer field %S" name

let float_field j name =
  match Option.bind (Json.member name j) Json.to_float with
  | Some v -> Ok v
  | None -> err "missing or non-number field %S" name

let bool_field j name =
  match Option.bind (Json.member name j) Json.to_bool with
  | Some v -> Ok v
  | None -> err "missing or non-boolean field %S" name

let string_field j name =
  match Option.bind (Json.member name j) Json.to_string_opt with
  | Some v -> Ok v
  | None -> err "missing or non-string field %S" name

let int_pair name = function
  | Json.List [ a; b ] -> (
      match (Json.to_int a, Json.to_int b) with
      | Some a, Some b -> Ok (a, b)
      | _ -> err "%S entries must be integer pairs" name)
  | _ -> err "%S entries must be integer pairs" name

let pairs_field j name =
  match Option.bind (Json.member name j) Json.to_list with
  | None -> err "missing or non-array field %S" name
  | Some items ->
      let rec loop acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* p = int_pair name item in
            loop (p :: acc) rest
      in
      loop [] items

let strings_opt_field j name =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some (Json.List items) ->
      let rec loop acc = function
        | [] -> Ok (Some (Array.of_list (List.rev acc)))
        | Json.Str s :: rest -> loop (s :: acc) rest
        | _ -> err "%S entries must be strings" name
      in
      loop [] items
  | Some _ -> err "field %S must be an array or null" name

let filter_backend j =
  let* steps = int_field j "steps" in
  let* log_lik = float_field j "log_lik" in
  let* belief =
    match Option.bind (Json.member "belief" j) Json.to_list with
    | None -> err "missing or non-array field \"belief\""
    | Some items ->
        let rec loop acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | item :: rest -> (
              match Json.to_float item with
              | Some v -> loop (v :: acc) rest
              | None -> err "\"belief\" entries must be numbers")
        in
        loop [] items
  in
  Ok
    (Estimate.Portable_filter
       { Stream.p_steps = steps; p_log_lik = log_lik; p_belief = belief })

let sim_backend j =
  let* mode =
    match Json.member "mode" j with
    | None -> err "missing field \"mode\""
    | Some mj -> (
        let* kind = string_field mj "kind" in
        match kind with
        | "unstarted" -> Ok `Unstarted
        | "desynced" ->
            let* row = int_field mj "row" in
            Ok (`Desynced row)
        | "synced" ->
            let* row = int_field mj "row" in
            let* cursors = pairs_field mj "cursors" in
            Ok (`Synced (row, cursors))
        | other -> err "unknown mode kind %S" other)
  in
  (* Older encoders wrote the stepper's own previous sample here; the
     session's one tracker now travels as "prev_inputs", so a non-null
     value names state this decoder has nowhere to put. *)
  let* () =
    match Json.member "sim_prev_inputs" j with
    | None | Some Json.Null -> Ok ()
    | Some _ ->
        err "field \"sim_prev_inputs\" is no longer supported; the previous sample \
             travels as \"prev_inputs\""
  in
  let* entered_via =
    match Json.member "entered_via" j with
    | None | Some Json.Null -> Ok None
    | Some v ->
        let* p = int_pair "entered_via" v in
        Ok (Some p)
  in
  let* progressed = bool_field j "progressed" in
  let* cycles = int_field j "cycles" in
  let* wrong_instants = int_field j "wrong_instants" in
  let* resync_events = int_field j "resync_events" in
  let* bans = pairs_field j "bans" in
  Ok
    (Estimate.Portable_sim
       { Stepper.p_mode = mode;
         p_entered_via = entered_via;
         p_progressed = progressed;
         p_cycles = cycles;
         p_wrong_instants = wrong_instants;
         p_resync_events = resync_events;
         p_bans = bans })

let parse_payload j =
  let* model = string_field j "model" in
  let* prev_inputs = strings_opt_field j "prev_inputs" in
  let* backend_kind = string_field j "backend" in
  let* backend =
    match backend_kind with
    | "filter" -> filter_backend j
    | "sim" -> sim_backend j
    | other -> err "unknown backend %S" other
  in
  Ok
    ( model,
      { Estimate.portable_backend = backend;
        portable_prev_inputs = prev_inputs } )

let decode data =
  match String.index_opt data '\n' with
  | None -> Error "checkpoint: truncated header"
  | Some nl1 -> (
      let found = String.sub data 0 nl1 in
      if not (String.equal found version) then
        err "version mismatch (%S, expected %S)" found version
      else
        match String.index_from_opt data (nl1 + 1) '\n' with
        | None -> Error "checkpoint: truncated digest"
        | Some nl2 ->
            let digest = String.sub data (nl1 + 1) (nl2 - nl1 - 1) in
            let payload =
              String.sub data (nl2 + 1) (String.length data - nl2 - 1)
            in
            if
              not
                (String.equal digest (Digest.to_hex (Digest.string payload)))
            then Error "checkpoint: digest mismatch (corrupted payload)"
            else
              let* j =
                Result.map_error (fun e -> "checkpoint: " ^ e)
                  (Json.of_string payload)
              in
              parse_payload j)
