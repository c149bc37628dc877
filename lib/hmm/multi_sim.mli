(** Concurrent simulation of the combined PSM set under HMM control
    (paper Sec. V).

    At each instant the observed PI/PO sample is classified into a
    proposition ({!Psm_mining.Sample_tracker} does this, once for all
    estimators); the current state's assertion — possibly a [simplify]
    cascade {p;q;…} tracked position by position, possibly a [join]
    alternative set {p‖q‖…} tracked as a set of live alternatives — decides
    whether the machine stays, advances inside the cascade, or exits
    through a transition. Non-deterministic exits and resynchronization
    jumps are resolved by HMM filtering (predict along A, condition on the
    observed entry proposition through B).

    When no alternative accepts the observation (an unknown behaviour),
    the machine reverts to the last valid state, bans the offending A
    entry, and attempts a filtered jump to a state that can recognize the
    observation; failing that it remains in the last valid state — whose
    power output keeps being emitted but is counted as unreliable — until
    a known behaviour reappears. These unreliable instants over the total
    gives the WSP (wrong-state prediction) metric of Table III.

    Bans are per session: a stepper keeps its own copy of each A row it
    banned and never writes the {!Hmm.t} it runs on, so any number of
    steppers, filters and analyzer passes may read one model at once. *)

type config = {
  resync_enabled : bool;
      (** Ablation switch: when false, a desynchronized machine can only
          recover by accidentally re-matching its current state (the
          Sec. III-C behaviour). Default true. *)
  on_resync : (cycle:int -> state:int -> prop:int option -> unit) option;
      (** Diagnostic hook invoked at each resynchronization event with the
          PSM state id and the observed proposition. Default [None]. *)
}

val default : config

type result = {
  estimate : float array;  (** Power estimate per instant. *)
  state_trace : int array;  (** PSM state id per instant; -1 = desynced. *)
  wrong_instants : int;
  wsp : float;  (** wrong_instants / length. *)
  resync_events : int;
}

val simulate : ?config:config -> Hmm.t -> Psm_trace.Functional_trace.t -> result
(** Runs a {!Stepper} over every instant of the trace, fed by
    {!Psm_mining.Sample_tracker.iter_runs} (one classification per run
    of identical samples). Reads [hmm]'s trained A and never writes it:
    the run's bans stay in the stepper. *)

(** The read-only per-model half of the stepper, built once per model and
    shared by every session on it (as {!Filtering.t} is for filter
    sessions). It holds the trained A with its row totals, π, the entry
    emissions and the state outputs, every cursor of every state's
    assertion, and three tables indexed by [row * nprops + o]: the start
    cursors of row [row] on entry proposition [o], its graph successors
    through guard [o], and (by [o] alone) the rows entered by [o].
    Nothing writes a plan after {!create}, so sessions on several domains
    may share one. Building it costs O(m² + m·nprops + |assertions| +
    |transitions|) for m states. Propositions outside the model's table
    enter no state. *)
module Plan : sig
  type t

  val create : Hmm.t -> t
  (** Reads [hmm] ({!Hmm.trained_a_row}: the A it was built with, not
      any {!Hmm.ban}s since) and never writes it. *)

  (**/**)

  val successor_rows : t -> row:int -> o:int -> int list
  (** Graph successors of state row [row] through guard [o], ascending
      (table lookup). Exposed so tests can pin the table against a scan
      of {!Psm_core.Psm.transitions}. *)

  val entry_rows : t -> o:int -> int list
  (** State rows with an alternative entered by proposition [o],
      ascending (table lookup). *)
end

(** Streaming interface for cycle-by-cycle co-simulation with a live IP
    model ({!simulate} is implemented on top of it). A stepper works on
    proposition codes: a caller holding raw samples classifies them with
    a {!Psm_mining.Sample_tracker} and passes its code and Hamming
    distance to {!advance}, which is what {!simulate}, the estimate
    sessions and the co-simulation flows do. A stepper is the small
    per-session half: mode, live cursors, counters, and an overlay
    holding its own copy of each A row it banned since the last reset
    (with the row's total). A reset drops only those rows. *)
module Stepper : sig
  type t

  val of_plan : ?config:config -> Plan.t -> t
  (** A fresh session on a shared plan: O(m) words of its own (overlay
      index and candidate scratch), nothing copied from A. *)

  val create : ?config:config -> Hmm.t -> t
  (** [of_plan] on a private {!Plan.create}. *)

  val advance : t -> hamming:float -> int -> unit
  (** [advance t ~hamming o] consumes one cycle's proposition code [o]
      ({!Psm_mining.Prop_trace.Table.code}: -1 = unknown behaviour; a
      code outside the model's table enters no state) with input Hamming
      distance [hamming]. The power estimate and state id are read with
      {!power} and {!state}. A step that stays in the current state,
      advances a cascade or exits through a transition allocates
      nothing; a resynchronization allocates a constant amount (its
      ban-log entry, a first-ban row copy). *)

  val advance_at : t -> float array -> int -> int -> unit
  (** [advance_at t hds k o] is [advance t ~hamming:hds.(k) o], reading
      the distance from the caller's array: a float passed as an
      argument across modules is boxed, one read here is not. The
      per-cycle loop of a batch of sessions uses it. *)

  val power : t -> float
  (** The power estimate of the last step. *)

  val power_into : t -> float array -> int -> unit
  (** [power_into t out i] writes {!power} into [out.(i)], allocating
      nothing (a float returned across modules is boxed). *)

  val state : t -> int
  (** The PSM state id of the last step, -1 when desynchronized. *)

  val cycles : t -> int
  val wrong_instants : t -> int
  val resync_events : t -> int

  type portable_mode =
    [ `Unstarted
    | `Synced of int * (int * int) list
      (** state row, live cursors as (alternative index, position) into
          that row's assertion *)
    | `Desynced of int  (** origin state row *) ]

  type portable = {
    p_mode : portable_mode;
    p_entered_via : (int * int) option;  (** (src row, dst row) *)
    p_progressed : bool;
    p_cycles : int;
    p_wrong_instants : int;
    p_resync_events : int;
    p_bans : (int * int) list;  (** (src row, dst row), oldest first *)
  }
  (** The stepper's complete resumable state as plain data: mode and
      live cursors, counters, and the ordered log of A
      bans since the last reset. This — not [Marshal] bytes, which are
      unsafe to decode from an untrusted source — is what session
      checkpoints serialize. *)

  val export : t -> portable

  val import : ?config:config -> Plan.t -> portable -> (t, string) Stdlib.result
  (** A stepper continuing exactly where {!export} was taken: every
      field is validated against the plan's model (row bounds, cursor
      alternative/position bounds, ban-log bounds) before
      any state is built, then the logged bans are replayed in order
      onto the new stepper's overlay, reproducing its banned rows
      float-for-float — stepping the imported stepper is bit-identical
      to never having stopped. The plan must be of the model the export
      was taken on. *)

  (**/**)

  val ban : t -> src:int -> dst:int -> unit
  (** Ban A(src, dst) in this stepper's overlay, as a wrong prediction
      does. Exposed so tests can pin the overlay against {!Hmm.ban}. *)

  val choice_scores :
    t -> origin_row:int -> prop:int -> int list -> (int * float) list
  (** The filtered score of each candidate row when leaving
      [origin_row] on entry proposition [prop]: A(origin, r) normalized
      over the row (this stepper's bans included), times
      [Hmm.b_entry r prop]. Equal to {!Hmm.predict} on the one-hot
      belief at [origin_row], read at [r], times the same emission. *)
end
