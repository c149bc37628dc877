(* Per-cycle reference for the concurrent simulation stepper (paper
   Sec. V). The library's [Multi_sim.Stepper] reads prebuilt per-model
   tables (start cursors, successors and entry rows indexed by
   row * nprops + o), keeps its A bans in a per-session overlay of copied
   rows with cached row totals, and scores candidates in scratch arrays.
   This module keeps the straightforward stepper it replaced — hash-table
   indexes, start cursors rebuilt from the assertion on every exit, a
   full row sum for every choice, candidate lists of tuples, and bans
   written into the [Hmm.t] itself ([Hmm.ban] / [Hmm.reset_bans]) — and
   test_sim pins the library against it cycle by cycle: power bits,
   state ids, counters, resynchronization hook calls and exports.

   The code below is the old library module unchanged, apart from these
   aliases and without its sample-level front end ([step], the previous
   sample in exports, [simulate]): the library stepper takes proposition
   codes, and the tests classify samples for both. Because it writes
   the A of the [Hmm.t] it is given, it needs a model of its own or one
   no caller reads at the same time: the library stepper reads the
   model's trained A and never its bans. *)

module Hmm = Psm_hmm.Hmm
module Psm = Psm_core.Psm
module Assertion = Psm_core.Assertion
module Functional_trace = Psm_trace.Functional_trace
module Table = Psm_mining.Prop_trace.Table

type config = {
  resync_enabled : bool;
  on_resync : (cycle:int -> state:int -> prop:int option -> unit) option;
}

let default = { resync_enabled = true; on_resync = None }

type result = {
  estimate : float array;
  state_trace : int array;
  wrong_instants : int;
  wsp : float;
  resync_events : int;
}

(* A cursor tracks progress through one alternative of a state's assertion:
   the array of primitive patterns of that alternative and the current
   position. Invariant: the entry instant of the pattern at [pos] has
   already been consumed (it coincides with the exit instant of the
   previous pattern, or with the state-entry instant for pos = 0). *)
type cursor = { prims : Assertion.t array; pos : int }

let primitives_of_alternative = function
  | (Assertion.Until _ | Assertion.Next _) as p -> [| p |]
  | Assertion.Seq parts -> Array.of_list parts
  | Assertion.Alt _ -> invalid_arg "Multi_sim: nested alternative"

let entry_of_alternative alternative =
  match Assertion.entry_props alternative with
  | [ p ] -> p
  | _ -> invalid_arg "Multi_sim: alternative without unique entry"

let start_cursors assertion o =
  Assertion.alternatives assertion
  |> List.filter (fun alternative -> entry_of_alternative alternative = o)
  |> List.map (fun alternative -> { prims = primitives_of_alternative alternative; pos = 0 })

type step_outcome = Stays of cursor | Completes

let step_cursor cursor o =
  let advance () =
    if cursor.pos + 1 < Array.length cursor.prims then
      Some (Stays { cursor with pos = cursor.pos + 1 })
    else Some Completes
  in
  match cursor.prims.(cursor.pos) with
  | Assertion.Until (p, q) ->
      if o = p then Some (Stays cursor) else if o = q then advance () else None
  | Assertion.Next (_, q) -> if o = q then advance () else None
  | Assertion.Seq _ | Assertion.Alt _ -> assert false

type mode =
  | Unstarted
  | Synced of { row : int; cursors : cursor list }
  | Desynced of { origin_row : int }

module Stepper = struct
  type t = {
    config : config;
    hmm : Hmm.t;
    table : Table.t;
    assertions : Assertion.t array; (* row -> state assertion *)
    outputs : Psm.output array; (* row -> state output *)
    succ_by_guard : (int * int, int list) Hashtbl.t;
    (* (src row, guard) -> dst rows, sorted uniq; every graph transition,
       regardless of the current (bannable) A mass *)
    rows_by_entry : (int, int list) Hashtbl.t;
    (* entry prop -> rows (ascending) with a matching alternative *)
    mutable mode : mode;
    mutable entered_via : (int * int) option;
    mutable progressed : bool; (* the current state matched at least one
                                  instant beyond its entry *)
    mutable bans_active : bool;
    mutable ban_log : (int * int) list;
    (* (src row, dst row) of every [Hmm.ban] since the last reset, newest
       first — replayed in order by [restore], which reproduces the
       banned A float-for-float (each ban renormalizes its row, so order
       matters). *)
    mutable cycles : int;
    mutable wrong_instants : int;
    mutable resync_events : int;
  }

  let create ?(config = default) hmm =
    Hmm.reset_bans hmm;
    let psm = Hmm.psm hmm in
    let table = Psm.prop_table psm in
    let m = Hmm.state_count hmm in
    let state_of_row row = Psm.state psm (Hmm.state_of_row hmm row) in
    let assertions = Array.init m (fun row -> (state_of_row row).Psm.assertion) in
    let outputs = Array.init m (fun row -> (state_of_row row).Psm.output) in
    let succ_by_guard = Hashtbl.create 64 in
    List.iter
      (fun (tr : Psm.transition) ->
        let key = (Hmm.row_of_state hmm tr.Psm.src, tr.Psm.guard) in
        let dst = Hmm.row_of_state hmm tr.Psm.dst in
        let prev = Option.value ~default:[] (Hashtbl.find_opt succ_by_guard key) in
        Hashtbl.replace succ_by_guard key (dst :: prev))
      (Psm.transitions psm);
    Hashtbl.filter_map_inplace
      (fun _ dsts -> Some (List.sort_uniq Int.compare dsts))
      succ_by_guard;
    let rows_by_entry = Hashtbl.create 64 in
    for row = m - 1 downto 0 do
      (* downto: each bucket ends up in ascending row order *)
      Assertion.alternatives assertions.(row)
      |> List.map entry_of_alternative
      |> List.sort_uniq Int.compare
      |> List.iter (fun o ->
             let prev = Option.value ~default:[] (Hashtbl.find_opt rows_by_entry o) in
             Hashtbl.replace rows_by_entry o (row :: prev))
    done;
    { config;
      hmm;
      table;
      assertions;
      outputs;
      succ_by_guard;
      rows_by_entry;
      mode = Unstarted;
      entered_via = None;
      progressed = false;
      bans_active = false;
      ban_log = [];
      cycles = 0;
      wrong_instants = 0;
      resync_events = 0 }

  let assertion_of_row t row = t.assertions.(row)
  let output_of_row t row = t.outputs.(row)

  (* Filtered belief from [origin] over [candidates], conditioned on the
     entry proposition. The belief is one-hot, so predict's output before
     normalization is exactly row [origin] of A: predicted.(r) is
     A(origin, r) over the full ascending row sum — bit-identical to
     {!Hmm.predict} on the one-hot belief, without the O(m²) product or
     the belief allocations. *)
  let choice_scores t ~origin_row ~prop candidates =
    let m = Hmm.state_count t.hmm in
    let total = ref 0. in
    for j = 0 to m - 1 do
      total := !total +. Hmm.a t.hmm origin_row j
    done;
    let total = !total in
    List.map
      (fun r ->
        let p = if total > 0. then Hmm.a t.hmm origin_row r /. total else 0. in
        (r, p *. Hmm.b_entry t.hmm r prop))
      candidates

  (* Choose among candidate rows by filtered belief; ties keep the first
     candidate. *)
  let filtered_choice t ~origin_row ~prop ~candidates =
    match candidates with
    | [] -> None
    | [ single ] -> Some single
    | _ ->
        let scored = choice_scores t ~origin_row ~prop candidates in
        let best =
          List.fold_left
            (fun acc (r, score) ->
              match acc with
              | Some (_, best_score) when best_score >= score -> acc
              | _ -> Some (r, score))
            None scored
        in
        Option.map fst best

  (* Graph successors of [row] through guard [o] (any A mass), ascending. *)
  let successor_rows t ~row ~o =
    Option.value ~default:[] (Hashtbl.find_opt t.succ_by_guard (row, o))

  (* Rows with an alternative entered by [o], ascending. *)
  let entry_rows t ~o = Option.value ~default:[] (Hashtbl.find_opt t.rows_by_entry o)

  (* Enter some state reachable from [origin_row] (or, failing that,
     anywhere) on entry proposition [o]. *)
  let try_jump t ~origin_row ~o =
    let reachable =
      successor_rows t ~row:origin_row ~o
      |> List.filter (fun dst -> Hmm.a t.hmm origin_row dst > 0.)
      |> List.filter (fun r -> start_cursors (assertion_of_row t r) o <> [])
    in
    let candidates =
      if reachable <> [] then reachable
      else entry_rows t ~o |> List.filter (fun r -> Hmm.b_entry t.hmm r o > 0.)
    in
    match filtered_choice t ~origin_row ~prop:o ~candidates with
    | Some r -> Some (Synced { row = r; cursors = start_cursors (assertion_of_row t r) o })
    | None -> None

  (* First instant: the π-weighted choice among states recognizing o. *)
  let initialize t o =
    let pi = Hmm.initial_belief t.hmm in
    let candidates = entry_rows t ~o in
    let scored =
      List.map (fun r -> (r, pi.(r) +. (1e-9 *. Hmm.b_entry t.hmm r o))) candidates
    in
    match
      List.fold_left
        (fun acc (r, score) ->
          match acc with
          | Some (_, best) when best >= score -> acc
          | _ -> Some (r, score))
        None scored
    with
    | Some (r, _) -> Synced { row = r; cursors = start_cursors (assertion_of_row t r) o }
    | None -> Desynced { origin_row = 0 }

  let notify t ~row ~o_opt =
    match t.config.on_resync with
    | Some hook -> hook ~cycle:t.cycles ~state:(Hmm.state_of_row t.hmm row) ~prop:o_opt
    | None -> ()

  (* Exit [row] through a transition guarded by o; ban wrong predictions
     (chosen states that cannot recognize the entry) and re-predict.
     [`No_edge] reports that the graph has no transition guarded by [o]
     out of [row] at all — the completed alternative was a chain tail, so
     the machine should remain in place (the paper: the simulation
     "proceeds by remaining in the last valid state"). *)
  let take_transition t ~row ~o =
    let successors = successor_rows t ~row ~o in
    if successors = [] then `No_edge
    else begin
      let rec attempt banned =
        let candidates =
          List.filter
            (fun dst ->
              Hmm.a t.hmm row dst > 0. && not (List.mem dst banned))
            successors
        in
        match filtered_choice t ~origin_row:row ~prop:o ~candidates with
        | None -> `All_failed
        | Some dst -> (
            match start_cursors (assertion_of_row t dst) o with
            | [] ->
                Hmm.ban t.hmm ~src_row:row ~dst_row:dst;
                t.ban_log <- (row, dst) :: t.ban_log;
                t.bans_active <- true;
                t.resync_events <- t.resync_events + 1;
                notify t ~row:dst ~o_opt:(Some o);
                attempt (dst :: banned)
            | cursors ->
                t.entered_via <- Some (row, dst);
                `Chosen (Synced { row = dst; cursors }))
      in
      attempt []
    end

  (* Unknown behaviour in state [row]: revert to the last valid state, ban
     the edge that brought us here, attempt a filtered jump. *)
  let handle_failure t ~row ~o_opt =
    Psm_obs.incr "hmm.resync_events";
    t.resync_events <- t.resync_events + 1;
    notify t ~row ~o_opt;
    if not t.config.resync_enabled then Desynced { origin_row = row }
    else begin
      (* Revert-and-ban only applies to a freshly predicted state that
         failed before matching anything (the paper's wrong prediction);
         a state that ran fine for a while and then saw an unknown
         behaviour is not a wrong prediction, and banning its entry edge
         would poison A for the rest of the simulation. *)
      let origin_row =
        match t.entered_via with
        | Some (src, dst) when dst = row && not t.progressed ->
            Hmm.ban t.hmm ~src_row:src ~dst_row:dst;
            t.ban_log <- (src, dst) :: t.ban_log;
            t.bans_active <- true;
            t.entered_via <- None;
            src
        | Some _ | None -> row
      in
      match o_opt with
      | Some o -> (
          match try_jump t ~origin_row ~o with
          | Some next -> next
          | None -> Desynced { origin_row })
      | None -> Desynced { origin_row }
    end

  let classify t sample = Table.classify t.table sample

  (* The cursor/transition state machine after sample classification —
     the entry point for proposition-level streaming (serve sessions
     whose client sends classified observations plus input Hamming
     distances instead of raw samples). [step] is this fed by the
     sample tracker; feeding the same trace through either path is
     bit-identical. *)
  let step_classified t ~hamming:hd o_opt =
    let initialized_now =
      match (t.mode, o_opt) with
      | Unstarted, Some o ->
          t.mode <- initialize t o;
          true
      | Unstarted, None ->
          t.mode <- Desynced { origin_row = 0 };
          true
      | (Synced _ | Desynced _), _ -> false
    in
    let next_mode =
      match (t.mode, o_opt) with
      | Unstarted, _ -> assert false
      | Synced _, _ when initialized_now ->
          (* The initial observation was consumed as the state's entry;
             stepping the cursors again would read it twice. *)
          t.mode
      | Synced { row; cursors }, Some o -> (
          let stepped = List.filter_map (fun c -> step_cursor c o) cursors in
          let stays =
            List.filter_map (function Stays c -> Some c | Completes -> None) stepped
          in
          let completes =
            List.exists (function Completes -> true | Stays _ -> false) stepped
          in
          (* Exits take precedence: a completed alternative whose guard
             leads somewhere wins over alternatives that merely survive
             (simplify can produce cascades spanning several behaviours,
             and following them past a legitimate exit strands the
             machine when the cascade eventually diverges). When no exit
             is possible, surviving cursors keep the machine in place. *)
          if completes then begin
            match take_transition t ~row ~o with
            | `Chosen next ->
                if t.bans_active then begin
                  (* Normal operation resumed: the bans did their job of
                     steering the re-prediction; keeping them would
                     permanently distort A. *)
                  Hmm.reset_bans t.hmm;
                  t.bans_active <- false;
                  t.ban_log <- []
                end;
                t.progressed <- false;
                next
            | `No_edge ->
                (* Chain-tail completion: absorb, as the training fold
                   attributed the trailing instants to this state. *)
                if stays <> [] then begin
                  t.progressed <- true;
                  Synced { row; cursors = stays }
                end
                else Synced { row; cursors }
            | `All_failed ->
                if stays <> [] then begin
                  t.progressed <- true;
                  Synced { row; cursors = stays }
                end
                else handle_failure t ~row ~o_opt
          end
          else if stays <> [] then begin
            t.progressed <- true;
            Synced { row; cursors = stays }
          end
          else handle_failure t ~row ~o_opt)
      | Synced { row; _ }, None -> handle_failure t ~row ~o_opt
      | Desynced { origin_row }, Some o ->
          if t.config.resync_enabled then begin
            match try_jump t ~origin_row ~o with
            | Some next ->
                t.progressed <- false;
                t.entered_via <- None;
                next
            | None -> Desynced { origin_row }
          end
          else begin
            (* Sec. III-C behaviour: only the origin state itself can
               recapture the trace. *)
            match start_cursors (assertion_of_row t origin_row) o with
            | [] -> Desynced { origin_row }
            | cursors -> Synced { row = origin_row; cursors }
          end
      | Desynced { origin_row }, None -> Desynced { origin_row }
    in
    t.mode <- next_mode;
    t.cycles <- t.cycles + 1;
    match next_mode with
    | Synced { row; _ } ->
        (Psm.eval_output (output_of_row t row) ~hamming:hd, Hmm.state_of_row t.hmm row)
    | Desynced { origin_row } ->
        t.wrong_instants <- t.wrong_instants + 1;
        (Psm.eval_output (output_of_row t origin_row) ~hamming:hd, -1)
    | Unstarted -> assert false

  let cycles t = t.cycles
  let wrong_instants t = t.wrong_instants
  let resync_events t = t.resync_events

  (* ---------- portable checkpoints ----------

     The stepper's resumable state as plain validated data. No internal
     structure crosses the boundary: cursors travel as (alternative
     index, position) into the state's assertion and are rebuilt from
     the target model on import, samples travel as binary strings. The
     serve wire encodes this — never [Marshal] bytes, which a hostile
     client could craft to corrupt the daemon. *)

  type portable_mode =
    [ `Unstarted | `Synced of int * (int * int) list | `Desynced of int ]

  type portable = {
    p_mode : portable_mode;
    p_entered_via : (int * int) option;
    p_progressed : bool;
    p_cycles : int;
    p_wrong_instants : int;
    p_resync_events : int;
    p_bans : (int * int) list; (* oldest first *)
  }

  (* The first alternative whose primitive sequence equals the cursor's:
     live cursors are built from the row's own alternatives, so this
     always succeeds, and equal-prims alternatives are behaviourally
     interchangeable ([step_cursor] reads only [prims]). *)
  let alt_index_of_cursor t ~row cursor =
    let rec find i = function
      | [] -> invalid_arg "Multi_sim: cursor matches no alternative"
      | alt :: rest ->
          if primitives_of_alternative alt = cursor.prims then i
          else find (i + 1) rest
    in
    find 0 (Assertion.alternatives t.assertions.(row))

  let export t =
    { p_mode =
        (match t.mode with
        | Unstarted -> `Unstarted
        | Desynced { origin_row } -> `Desynced origin_row
        | Synced { row; cursors } ->
            `Synced
              ( row,
                List.map
                  (fun c -> (alt_index_of_cursor t ~row c, c.pos))
                  cursors ));
      p_entered_via = t.entered_via;
      p_progressed = t.progressed;
      p_cycles = t.cycles;
      p_wrong_instants = t.wrong_instants;
      p_resync_events = t.resync_events;
      p_bans = List.rev t.ban_log }

  let import ?config hmm p =
    let t = create ?config hmm in
    let m = Hmm.state_count hmm in
    let row_ok r = r >= 0 && r < m in
    if p.p_cycles < 0 || p.p_resync_events < 0 then
      Error "negative counter"
    else if p.p_wrong_instants < 0 || p.p_wrong_instants > p.p_cycles then
      Error "wrong_instants outside [0, cycles]"
    else if List.compare_length_with p.p_bans (m * m) > 0 then
      Error "ban log longer than A has entries"
    else if
      List.exists (fun (src, dst) -> not (row_ok src && row_ok dst)) p.p_bans
    then Error "ban row out of range"
    else if
      match p.p_entered_via with
      | Some (src, dst) -> not (row_ok src && row_ok dst)
      | None -> false
    then Error "entered_via row out of range"
    else
      let mode =
        match p.p_mode with
        | `Unstarted -> Ok Unstarted
        | `Desynced origin_row ->
            if row_ok origin_row then Ok (Desynced { origin_row })
            else Error "desynced origin row out of range"
        | `Synced (row, pcursors) ->
            if not (row_ok row) then Error "synced row out of range"
            else if pcursors = [] then Error "synced state with no cursors"
            else begin
              let alternatives =
                Array.of_list (Assertion.alternatives t.assertions.(row))
              in
              if
                List.compare_length_with pcursors (Array.length alternatives)
                > 0
              then Error "more cursors than the state has alternatives"
              else begin
                try
                  Ok
                    (Synced
                       { row;
                         cursors =
                           List.map
                             (fun (ai, pos) ->
                               if ai < 0 || ai >= Array.length alternatives
                               then failwith "cursor alternative out of range";
                               let prims =
                                 primitives_of_alternative alternatives.(ai)
                               in
                               if pos < 0 || pos >= Array.length prims then
                                 failwith "cursor position out of range";
                               { prims; pos })
                             pcursors })
                with Failure msg -> Error msg
              end
            end
      in
      match mode with
      | Error _ as e -> e
      | Ok mode ->
          (* [create] reset the bans, so replaying the validated log
             in its original order rebuilds the banned A
             float-for-float (each ban renormalizes its source row
             sequentially). *)
          List.iter
            (fun (src, dst) -> Hmm.ban hmm ~src_row:src ~dst_row:dst)
            p.p_bans;
          t.ban_log <- List.rev p.p_bans;
          t.bans_active <- p.p_bans <> [];
          t.mode <- mode;
          t.entered_via <- p.p_entered_via;
          t.progressed <- p.p_progressed;
          t.cycles <- p.p_cycles;
          t.wrong_instants <- p.p_wrong_instants;
          t.resync_events <- p.p_resync_events;
          Ok t
end
