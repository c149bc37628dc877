module Psm = Psm_core.Psm
module Assertion = Psm_core.Assertion
module Functional_trace = Psm_trace.Functional_trace
module Table = Psm_mining.Prop_trace.Table
module Sample_tracker = Psm_mining.Sample_tracker

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

(* A cursor tracks progress through one alternative of a state's
   assertion: the primitive pattern at position [pos]. Invariant: the
   entry instant of that pattern has already been consumed (it coincides
   with the exit instant of the previous pattern, or with the
   state-entry instant for pos = 0). Every (row, alternative, position)
   has one cursor, built with the plan, so stepping moves between shared
   records and never builds one. *)
type cursor = {
  alt : int;
      (* the row's first alternative with these primitives: what
         checkpoints name (equal-primitive alternatives step alike) *)
  pos : int;
  until : bool; (* [Until (p, q)] at [pos]; [Next (p, q)] otherwise *)
  p : int;
  q : int;
  advanced : cursor list;
      (* [[the cursor at pos + 1]], or [] on the last pattern: the cursor
         list a lone advancing cursor steps to, built once *)
}

let primitives_of_alternative = function
  | (Assertion.Until _ | Assertion.Next _) as p -> [| p |]
  | Assertion.Seq parts -> Array.of_list parts
  | Assertion.Alt _ -> invalid_arg "Multi_sim: nested alternative"

let entry_of_alternative alternative =
  match Assertion.entry_props alternative with
  | [ p ] -> p
  | _ -> invalid_arg "Multi_sim: alternative without unique entry"

(* The cursors of one alternative, one per position. *)
let cursors_of_alternative ~alt prims =
  let n = Array.length prims in
  let rec build pos =
    if pos = n then []
    else
      let until, p, q =
        match prims.(pos) with
        | Assertion.Until (p, q) -> (true, p, q)
        | Assertion.Next (p, q) -> (false, p, q)
        | Assertion.Seq _ | Assertion.Alt _ ->
            invalid_arg "Multi_sim: composite pattern inside a cascade"
      in
      [ { alt; pos; until; p; q; advanced = build (pos + 1) } ]
  in
  let rec collect acc = function
    | [] -> Array.of_list (List.rev acc)
    | c :: _ -> collect (c :: acc) c.advanced
  in
  collect [] (build 0)

module Plan = struct
  type t = {
    table : Table.t;
    width : int; (* the model's proposition count: (row, o) slots per row *)
    ids : int array; (* row -> PSM state id *)
    a : float array array; (* the trained A; never written *)
    a_total : float array; (* row sums of [a], in ascending column order *)
    pi : float array;
    b : float array; (* row * width + o -> Hmm.b_entry *)
    affine : bool array; (* row -> output is [Affine] *)
    slope : float array;
    level : float array; (* [Const] value, or the [Affine] intercept *)
    alt_cursors : cursor array array array;
        (* row -> alternative -> position; an alternative equal to an
           earlier one shares that one's cursors *)
    start : cursor list array;
        (* row * width + o -> the cursors entering the row on o, in
           alternative order *)
    succ : int array array;
        (* row * width + o -> graph successors through guard o,
           ascending; every transition, whatever its A mass *)
    entry : int array array; (* o -> rows with an alternative entered by o, ascending *)
    (* The same three tables for propositions outside [0, width), which
       only a machine built without its table's interning mentions:
       keyed sparsely, so such an id costs no table width. Empty for
       every trained or loaded model. *)
    far_start : (int * int, cursor list) Hashtbl.t;
    far_succ : (int * int, int array) Hashtbl.t;
    far_entry : (int, int array) Hashtbl.t;
  }

  let create hmm =
    let psm = Hmm.psm hmm in
    let table = Psm.prop_table psm in
    let m = Hmm.state_count hmm in
    let width = Table.prop_count table in
    let in_range o = o >= 0 && o < width in
    let state_of_row row = Psm.state psm (Hmm.state_of_row hmm row) in
    let alternatives =
      Array.init m (fun row ->
          Array.of_list (Assertion.alternatives (state_of_row row).Psm.assertion))
    in
    let alt_cursors =
      Array.map
        (fun alts ->
          let prims = Array.map primitives_of_alternative alts in
          let built = Array.make (Array.length alts) [||] in
          Array.iteri
            (fun ai p ->
              let rec first j = if prims.(j) = p then j else first (j + 1) in
              let canonical = first 0 in
              built.(ai) <-
                (if canonical < ai then built.(canonical)
                 else cursors_of_alternative ~alt:ai p))
            prims;
          built)
        alternatives
    in
    (* Both kinds of slot fill by consing, so each list is built back to
       front: rows and alternatives are visited in descending order. *)
    let start = Array.make (m * width) [] and far_start = Hashtbl.create 0 in
    let entry_lists = Array.make width [] and far_entry = Hashtbl.create 0 in
    let cons_far table key x =
      Hashtbl.replace table key (x :: Option.value ~default:[] (Hashtbl.find_opt table key))
    in
    for row = m - 1 downto 0 do
      let alts = alternatives.(row) in
      let entries = Array.map entry_of_alternative alts in
      for ai = Array.length alts - 1 downto 0 do
        let o = entries.(ai) and c = alt_cursors.(row).(ai).(0) in
        if in_range o then start.((row * width) + o) <- c :: start.((row * width) + o)
        else cons_far far_start (row, o) c
      done;
      List.iter
        (fun o ->
          if in_range o then entry_lists.(o) <- row :: entry_lists.(o)
          else cons_far far_entry o row)
        (List.sort_uniq Int.compare (Array.to_list entries))
    done;
    let succ_lists = Array.make (m * width) [] and far_succ = Hashtbl.create 0 in
    List.iter
      (fun (tr : Psm.transition) ->
        let src = Hmm.row_of_state hmm tr.Psm.src and o = tr.Psm.guard in
        let dst = Hmm.row_of_state hmm tr.Psm.dst in
        if in_range o then succ_lists.((src * width) + o) <- dst :: succ_lists.((src * width) + o)
        else cons_far far_succ (src, o) dst)
      (Psm.transitions psm);
    let ascending = function
      | [] -> [||]
      | rows -> Array.of_list (List.sort_uniq Int.compare rows)
    in
    let arrays f table =
      let out = Hashtbl.create (Hashtbl.length table) in
      Hashtbl.iter (fun key rows -> Hashtbl.replace out key (f rows)) table;
      out
    in
    let a = Array.init m (Hmm.trained_a_row hmm) in
    let outputs = Array.init m (fun row -> (state_of_row row).Psm.output) in
    { table;
      width;
      ids = Array.init m (Hmm.state_of_row hmm);
      a;
      a_total = Array.map (Array.fold_left ( +. ) 0.) a;
      pi = Hmm.initial_belief hmm;
      b = Array.init (m * width) (fun slot -> Hmm.b_entry hmm (slot / width) (slot mod width));
      affine = Array.map (function Psm.Affine _ -> true | Psm.Const _ -> false) outputs;
      slope = Array.map (function Psm.Affine { slope; _ } -> slope | Psm.Const _ -> 0.) outputs;
      level =
        Array.map
          (function Psm.Affine { intercept; _ } -> intercept | Psm.Const mu -> mu)
          outputs;
      alt_cursors;
      start;
      succ = Array.map ascending succ_lists;
      entry = Array.map Array.of_list entry_lists;
      far_start;
      far_succ = arrays ascending far_succ;
      far_entry = arrays Array.of_list far_entry }

  let states t = Array.length t.ids

  let[@inline] in_range t o = o >= 0 && o < t.width

  let start_cursors t row o =
    if in_range t o then t.start.((row * t.width) + o)
    else if Hashtbl.length t.far_start = 0 then []
    else Option.value ~default:[] (Hashtbl.find_opt t.far_start (row, o))

  let successors t row o =
    if in_range t o then t.succ.((row * t.width) + o)
    else if Hashtbl.length t.far_succ = 0 then [||]
    else Option.value ~default:[||] (Hashtbl.find_opt t.far_succ (row, o))

  let entries t o =
    if in_range t o then t.entry.(o)
    else if Hashtbl.length t.far_entry = 0 then [||]
    else Option.value ~default:[||] (Hashtbl.find_opt t.far_entry o)

  (* [Hmm.b_entry r o]: 0 outside the table, as there. *)
  let[@inline] b t r o = if in_range t o then t.b.((r * t.width) + o) else 0.

  let successor_rows t ~row ~o = Array.to_list (successors t row o)
  let entry_rows t ~o = Array.to_list (entries t o)
end

module Stepper = struct
  type kind = Unstarted | Synced | Desynced

  type outcome = Chosen | No_edge | All_failed

  type t = {
    config : config;
    plan : Plan.t;
    mutable kind : kind;
    mutable row : int; (* Synced: the current row; Desynced: the origin row *)
    mutable cursors : cursor list; (* Synced: the live cursors, never [] *)
    mutable via_src : int; (* the transition that entered [row]; -1 = none *)
    mutable via_dst : int;
    mutable progressed : bool; (* the current state matched at least one
                                  instant beyond its entry *)
    mutable completed : bool; (* [step_cursors] scratch: some alternative completed *)
    mutable ban_log : (int * int) list;
    (* (src row, dst row) of every ban since the last reset, newest
       first — replayed in order by [import], which reproduces the
       banned rows float-for-float (each ban renormalizes its row, so
       order matters). *)
    mutable cycles : int;
    mutable wrong_instants : int;
    mutable resync_events : int;
    mutable state_id : int; (* the last step's PSM state id, -1 = desynced *)
    power : float array; (* [| the last step's power |]: unboxed *)
    (* The A overlay: this session's own copy of every row it banned
       since the last reset, with its row total. Rows not [live] read
       the plan's trained A. A copied row's storage is kept for the
       row's next ban. *)
    own_rows : float array array;
    own_total : float array;
    live : bool array;
    mutable live_rows : int list;
    (* Candidate scratch for exits and jumps: [cand] holds the rows
       being scored, [mark.(r) = epoch] bars a row already banned in the
       current exit attempt. *)
    cand : int array;
    mark : int array;
    mutable epoch : int;
  }

  let of_plan ?(config = default) (plan : Plan.t) =
    let m = Plan.states plan in
    { config;
      plan;
      kind = Unstarted;
      row = 0;
      cursors = [];
      via_src = -1;
      via_dst = -1;
      progressed = false;
      completed = false;
      ban_log = [];
      cycles = 0;
      wrong_instants = 0;
      resync_events = 0;
      state_id = -1;
      power = [| 0. |];
      own_rows = Array.make m [||];
      own_total = Array.make m 0.;
      live = Array.make m false;
      live_rows = [];
      cand = Array.make m 0;
      mark = Array.make m 0;
      epoch = 0 }

  let create ?config hmm = of_plan ?config (Plan.create hmm)

  let[@inline] a_row t i = if t.live.(i) then t.own_rows.(i) else t.plan.Plan.a.(i)
  let[@inline] a_total t i = if t.live.(i) then t.own_total.(i) else t.plan.Plan.a_total.(i)

  (* Ban A(src, dst) in this session only: the row is copied into the
     overlay on its first ban, then renormalized exactly as [Hmm.ban]
     would, and its total is cached. *)
  let ban t ~src ~dst =
    if not t.live.(src) then begin
      let base = t.plan.Plan.a.(src) in
      if Array.length t.own_rows.(src) = 0 then t.own_rows.(src) <- Array.copy base
      else Array.blit base 0 t.own_rows.(src) 0 (Array.length base);
      t.live.(src) <- true;
      t.live_rows <- src :: t.live_rows
    end;
    let row = t.own_rows.(src) in
    Hmm.ban_row row ~dst;
    t.own_total.(src) <- Array.fold_left ( +. ) 0. row;
    t.ban_log <- (src, dst) :: t.ban_log

  (* Back to the trained A: only the rows this session banned. *)
  let reset_bans t =
    List.iter (fun i -> t.live.(i) <- false) t.live_rows;
    t.live_rows <- [];
    t.ban_log <- []

  (* The filtered score of candidate [r] when leaving a state whose A row
     is [row] (total [total]) on entry proposition [prop]. The belief is
     one-hot, so predict's output before normalization is exactly that
     row: A(origin, r) over the full ascending row sum — bit-identical to
     {!Hmm.predict} on the one-hot belief, without the O(m²) product —
     times [Hmm.b_entry r prop]. *)
  let[@inline] score (plan : Plan.t) row total r prop =
    (if total > 0. then row.(r) /. total else 0.) *. Plan.b plan r prop

  (* Choose among the first [k] rows of [cand] by filtered belief; ties
     keep the first candidate. -1 when there is none. *)
  let filtered_choice t ~origin_row ~prop k =
    if k = 0 then -1
    else if k = 1 then t.cand.(0)
    else begin
      let plan = t.plan in
      let row = a_row t origin_row and total = a_total t origin_row in
      let best = ref t.cand.(0) in
      let best_score = ref (score plan row total !best prop) in
      for i = 1 to k - 1 do
        let r = t.cand.(i) in
        let s = score plan row total r prop in
        if not (!best_score >= s) then begin
          best := r;
          best_score := s
        end
      done;
      !best
    end

  let has_start plan row o = match Plan.start_cursors plan row o with [] -> false | _ -> true

  let enter t row o =
    t.kind <- Synced;
    t.row <- row;
    t.cursors <- Plan.start_cursors t.plan row o

  let desync t origin_row =
    t.kind <- Desynced;
    t.row <- origin_row;
    t.cursors <- []

  (* The row to enter from [origin_row] (or, failing that, anywhere) on
     entry proposition [o]; -1 when none recognizes it. *)
  let try_jump t ~origin_row ~o =
    let plan = t.plan in
    let succ = Plan.successors plan origin_row o in
    let row = a_row t origin_row in
    let k = ref 0 in
    for i = 0 to Array.length succ - 1 do
      let dst = succ.(i) in
      if row.(dst) > 0. && has_start plan dst o then begin
        t.cand.(!k) <- dst;
        incr k
      end
    done;
    if !k = 0 then begin
      let entry = Plan.entries plan o in
      for i = 0 to Array.length entry - 1 do
        let r = entry.(i) in
        if Plan.b plan r o > 0. then begin
          t.cand.(!k) <- r;
          incr k
        end
      done
    end;
    filtered_choice t ~origin_row ~prop:o !k

  (* First instant: the π-weighted choice among states recognizing o. *)
  let initialize t o =
    let plan = t.plan in
    let rows = Plan.entries plan o in
    if Array.length rows = 0 then desync t 0
    else begin
      let score r = plan.Plan.pi.(r) +. (1e-9 *. Plan.b plan r o) in
      let best = ref rows.(0) in
      let best_score = ref (score rows.(0)) in
      for i = 1 to Array.length rows - 1 do
        let s = score rows.(i) in
        if not (!best_score >= s) then begin
          best := rows.(i);
          best_score := s
        end
      done;
      enter t !best o
    end

  let notify t ~row ~o =
    match t.config.on_resync with
    | Some hook ->
        hook ~cycle:t.cycles ~state:t.plan.Plan.ids.(row) ~prop:(if o = -1 then None else Some o)
    | None -> ()

  (* Exit [row] through a transition guarded by o; ban wrong predictions
     (chosen states that cannot recognize the entry) and re-predict.
     [No_edge] reports that the graph has no transition guarded by [o]
     out of [row] at all — the completed alternative was a chain tail, so
     the machine should remain in place (the paper: the simulation
     "proceeds by remaining in the last valid state"). *)
  let rec attempt t ~row ~o succ =
    let a = a_row t row in
    let k = ref 0 in
    for i = 0 to Array.length succ - 1 do
      let dst = succ.(i) in
      if a.(dst) > 0. && t.mark.(dst) <> t.epoch then begin
        t.cand.(!k) <- dst;
        incr k
      end
    done;
    let dst = filtered_choice t ~origin_row:row ~prop:o !k in
    if dst < 0 then All_failed
    else if not (has_start t.plan dst o) then begin
      ban t ~src:row ~dst;
      t.resync_events <- t.resync_events + 1;
      notify t ~row:dst ~o;
      t.mark.(dst) <- t.epoch;
      attempt t ~row ~o succ
    end
    else begin
      t.via_src <- row;
      t.via_dst <- dst;
      enter t dst o;
      Chosen
    end

  let take_transition t ~row ~o =
    let succ = Plan.successors t.plan row o in
    if Array.length succ = 0 then No_edge
    else begin
      t.epoch <- t.epoch + 1;
      attempt t ~row ~o succ
    end

  (* Unknown behaviour in state [row]: revert to the last valid state, ban
     the edge that brought us here, attempt a filtered jump. [o] is -1
     for an unknown sample. *)
  let handle_failure t ~row ~o =
    Psm_obs.incr "hmm.resync_events";
    t.resync_events <- t.resync_events + 1;
    notify t ~row ~o;
    if not t.config.resync_enabled then desync t row
    else begin
      (* Revert-and-ban only applies to a freshly predicted state that
         failed before matching anything (the paper's wrong prediction);
         a state that ran fine for a while and then saw an unknown
         behaviour is not a wrong prediction, and banning its entry edge
         would poison A for the rest of the simulation. *)
      let origin_row =
        if t.via_src >= 0 && t.via_dst = row && not t.progressed then begin
          let src = t.via_src in
          ban t ~src ~dst:row;
          t.via_src <- -1;
          t.via_dst <- -1;
          src
        end
        else row
      in
      if o = -1 then desync t origin_row
      else
        let next = try_jump t ~origin_row ~o in
        if next >= 0 then enter t next o else desync t origin_row
    end

  (* Every live cursor is an [Until (p, _)] with p = o: the state is an
     exact fixed point of the step. *)
  let rec all_stay cursors o =
    match cursors with
    | [] -> true
    | c :: rest -> c.until && c.p = o && all_stay rest o

  (* The cursors surviving [o], in order, sharing the longest unchanged
     suffix of [cursors]; sets [t.completed] when an alternative
     completes. *)
  let rec step_cursors t cursors o =
    match cursors with
    | [] -> []
    | c :: rest ->
        let rest' = step_cursors t rest o in
        if c.until && c.p = o then if rest' == rest then cursors else c :: rest'
        else if c.q = o then begin
          match c.advanced with
          | next :: _ -> ( match rest' with [] -> c.advanced | _ -> next :: rest')
          | [] ->
              t.completed <- true;
              rest'
        end
        else rest'

  (* Surviving cursors keep the machine in the state; [] leaves it to
     the caller. Returns whether any survived. *)
  let stayed t stays =
    match stays with
    | [] -> false
    | _ ->
        t.progressed <- true;
        t.cursors <- stays;
        true

  let synced_step t o =
    let row = t.row and cursors = t.cursors in
    if cursors != [] && all_stay cursors o then t.progressed <- true
    else begin
      t.completed <- false;
      let stays = step_cursors t cursors o in
      (* Exits take precedence: a completed alternative whose guard leads
         somewhere wins over alternatives that merely survive (simplify
         can produce cascades spanning several behaviours, and following
         them past a legitimate exit strands the machine when the cascade
         eventually diverges). When no exit is possible, surviving
         cursors keep the machine in place. *)
      if t.completed then begin
        match take_transition t ~row ~o with
        | Chosen ->
            (* Normal operation resumed: the bans did their job of
               steering the re-prediction; keeping them would
               permanently distort A. *)
            if t.live_rows != [] then reset_bans t;
            t.progressed <- false
        | No_edge ->
            (* Chain-tail completion: absorb, as the training fold
               attributed the trailing instants to this state. *)
            ignore (stayed t stays)
        | All_failed -> if not (stayed t stays) then handle_failure t ~row ~o
      end
      else if not (stayed t stays) then handle_failure t ~row ~o
    end

  let desynced_step t o =
    let origin_row = t.row in
    if t.config.resync_enabled then begin
      let next = try_jump t ~origin_row ~o in
      if next >= 0 then begin
        t.progressed <- false;
        t.via_src <- -1;
        t.via_dst <- -1;
        enter t next o
      end
    end
    else if
      (* Sec. III-C behaviour: only the origin state itself can recapture
         the trace. *)
      has_start t.plan origin_row o
    then enter t origin_row o

  (* The cursor/transition state machine, one proposition code per
     cycle (-1 = unknown behaviour). Writes the step's state into
     [state_id]; the callers below write its power into [power] instead
     of returning it, so the paths that only move cursors or exit
     through a transition allocate nothing. *)
  let step t o =
    (match t.kind with
    | Unstarted ->
        if o = -1 then desync t 0
        else begin
          initialize t o;
          (* The initial observation was consumed as the state's entry;
             stepping the cursors again would read it twice. *)
          match t.kind with Desynced -> desynced_step t o | Synced | Unstarted -> ()
        end
    | Synced -> if o = -1 then handle_failure t ~row:t.row ~o else synced_step t o
    | Desynced -> if o <> -1 then desynced_step t o);
    t.cycles <- t.cycles + 1;
    match t.kind with
    | Synced -> t.state_id <- t.plan.Plan.ids.(t.row)
    | Desynced ->
        t.wrong_instants <- t.wrong_instants + 1;
        t.state_id <- -1
    | Unstarted -> assert false

  (* Inlined into both entries, so the distance stays unboxed. *)
  let[@inline] set_power t hamming =
    let plan = t.plan and row = t.row in
    t.power.(0) <-
      (if plan.Plan.affine.(row) then (plan.Plan.slope.(row) *. hamming) +. plan.Plan.level.(row)
       else plan.Plan.level.(row))

  let advance t ~hamming o =
    step t o;
    set_power t hamming

  let advance_at t hds k o =
    step t o;
    set_power t hds.(k)

  let power t = t.power.(0)
  let power_into t out i = out.(i) <- t.power.(0)
  let state t = t.state_id

  let cycles t = t.cycles
  let wrong_instants t = t.wrong_instants
  let resync_events t = t.resync_events

  let choice_scores t ~origin_row ~prop candidates =
    let row = a_row t origin_row and total = a_total t origin_row in
    List.map (fun r -> (r, score t.plan row total r prop)) candidates

  (* ---------- portable checkpoints ----------

     The stepper's resumable state as plain validated data. No internal
     structure crosses the boundary: cursors travel as (alternative
     index, position) into the state's assertion and are looked up in
     the target model's plan on import, samples travel as binary
     strings. The serve wire encodes this — never [Marshal] bytes, which
     a hostile client could craft to corrupt the daemon. *)

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

  let export t =
    { p_mode =
        (match t.kind with
        | Unstarted -> `Unstarted
        | Desynced -> `Desynced t.row
        | Synced -> `Synced (t.row, List.map (fun c -> (c.alt, c.pos)) t.cursors));
      p_entered_via = (if t.via_src >= 0 then Some (t.via_src, t.via_dst) else None);
      p_progressed = t.progressed;
      p_cycles = t.cycles;
      p_wrong_instants = t.wrong_instants;
      p_resync_events = t.resync_events;
      p_bans = List.rev t.ban_log }

  let import ?config plan p =
    let t = of_plan ?config plan in
    let m = Plan.states plan in
    let row_ok r = r >= 0 && r < m in
    if p.p_cycles < 0 || p.p_resync_events < 0 then
      Error "negative counter"
    else if p.p_wrong_instants < 0 || p.p_wrong_instants > p.p_cycles then
      Error "wrong_instants outside [0, cycles]"
    else if
      (* A cycle bans at most every successor of one row plus the edge
         that entered it. Not m²: a ban that empties a row refills it
         uniformly, so one entry can be banned again and again. *)
      List.compare_length_with p.p_bans (p.p_cycles * (m + 1)) > 0
    then Error "ban log longer than its cycles can produce"
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
        | `Unstarted -> Ok (Unstarted, 0, [])
        | `Desynced origin_row ->
            if row_ok origin_row then Ok (Desynced, origin_row, [])
            else Error "desynced origin row out of range"
        | `Synced (row, pcursors) ->
            if not (row_ok row) then Error "synced row out of range"
            else if pcursors = [] then Error "synced state with no cursors"
            else begin
              let alternatives = plan.Plan.alt_cursors.(row) in
              if
                List.compare_length_with pcursors (Array.length alternatives)
                > 0
              then Error "more cursors than the state has alternatives"
              else begin
                try
                  Ok
                    ( Synced,
                      row,
                      List.map
                        (fun (ai, pos) ->
                          if ai < 0 || ai >= Array.length alternatives
                          then failwith "cursor alternative out of range";
                          let cursors = alternatives.(ai) in
                          if pos < 0 || pos >= Array.length cursors then
                            failwith "cursor position out of range";
                          cursors.(pos))
                        pcursors )
                with Failure msg -> Error msg
              end
            end
      in
      match mode with
      | Error _ as e -> e
      | Ok (kind, row, cursors) ->
          (* Replaying the validated log in its original order rebuilds
             the banned rows float-for-float (each ban renormalizes its
             source row sequentially). *)
          List.iter (fun (src, dst) -> ban t ~src ~dst) p.p_bans;
          t.kind <- kind;
          t.row <- row;
          t.cursors <- cursors;
          (match p.p_entered_via with
          | Some (src, dst) ->
              t.via_src <- src;
              t.via_dst <- dst
          | None -> ());
          t.progressed <- p.p_progressed;
          t.cycles <- p.p_cycles;
          t.wrong_instants <- p.p_wrong_instants;
          t.resync_events <- p.p_resync_events;
          Ok t
end

(* One classification per run of identical samples: a run's first
   instant carries its input Hamming distance, the others 0. *)
let simulate ?config hmm trace =
  Psm_obs.span "hmm.multi_sim" @@ fun () ->
  let stepper = Stepper.create ?config hmm in
  let n = Functional_trace.length trace in
  let estimate = Array.make n 0. in
  let state_trace = Array.make n (-1) in
  Sample_tracker.iter_runs stepper.Stepper.plan.Plan.table trace
    (fun ~start ~len ~code ~distance ->
      for time = start to start + len - 1 do
        Stepper.advance stepper
          ~hamming:(if time = start then float_of_int distance else 0.)
          code;
        estimate.(time) <- stepper.Stepper.power.(0);
        state_trace.(time) <- stepper.Stepper.state_id
      done);
  let wrong = Stepper.wrong_instants stepper in
  { estimate;
    state_trace;
    wrong_instants = wrong;
    wsp = (if n = 0 then 0. else float_of_int wrong /. float_of_int n);
    resync_events = Stepper.resync_events stepper }
