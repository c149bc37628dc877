(** Session-facing online power estimation over a persisted model — the
    unit of work a serve session wraps.

    An estimate session consumes one observation per clock cycle — either
    a classified proposition plus the input Hamming distance, or a raw
    interface sample — and yields the per-cycle (power, PSM state id)
    pair. Two backends implement the paper's two online views:

    - [`Sim] — the assertion-cursor co-simulation ({!Psm_hmm.Multi_sim}):
      state ids are exact PSM states, -1 while desynchronized, and the
      WSP / resynchronization counters are live. Sessions can share one
      read-only {!Psm_hmm.Multi_sim.Plan.t} (pass [?plan]); each keeps
      its A bans in its own stepper's overlay of banned rows, so they
      never touch siblings or the model's {!Psm_hmm.Hmm.t}.
    - [`Filter] — the probabilistic α recursion
      ({!Psm_hmm.Filtering.Stream}): power is the posterior-weighted
      output mean, the state id is the marginal MAP state. Sessions can
      share one {!Psm_hmm.Filtering.t} (pass [?filtering]), which is what
      lets a server batch their forward steps into one kernel sweep.

    Raw samples go through the session's one
    {!Psm_mining.Sample_tracker}, whichever the backend, and the backend
    sees only its proposition code and Hamming distance. Both paths are
    bit-identical to their offline counterparts
    ({!Psm_hmm.Multi_sim.simulate} / {!Psm_hmm.Filtering.expected_power}
    and [map_states]) on the same trace. *)

type mode = [ `Filter | `Sim ]

type t

val of_model :
  ?filtering:Psm_hmm.Filtering.t ->
  ?plan:Psm_hmm.Multi_sim.Plan.t ->
  mode:mode ->
  Persist.model ->
  t
(** [?filtering] (filter mode only): share a prebuilt filtering context
    across sessions of the same model; default builds a private one.
    [?plan] (sim mode only): likewise for the stepper's plan, which must
    be of [model]'s HMM. A sim session on a shared plan costs O(m) words
    of its own for m states. *)

val mode : t -> mode
val model : t -> Persist.model

val step : t -> ?hd:float -> int option -> float * int
(** Consume one classified observation ([None] = unknown behaviour) with
    input Hamming distance [hd] (default 0): returns (power estimate,
    PSM state id; -1 = desynchronized). *)

val step_sample : t -> Psm_bits.Bits.t array -> float * int
(** Consume one raw interface sample, in either mode: the session's one
    {!Psm_mining.Sample_tracker} classifies it and tracks its input
    Hamming distance, as the offline evaluators' run walk does, and
    {!step} consumes the result. *)

val cycles : t -> int
val wrong_instants : t -> int
val resync_events : t -> int

val wsp : t -> float
(** wrong_instants / cycles (0 for filter sessions, which never
    desynchronize). *)

val log_likelihood : t -> float
(** Cumulative observation log likelihood (filter sessions; 0 for sim). *)

val filter_state : t -> (Psm_hmm.Filtering.t * Psm_hmm.Filtering.Stream.state) option
(** Filter sessions expose their shared context and belief state so a
    batch scheduler can sweep many sessions at once
    ({!Psm_hmm.Filtering.Stream.sweep}); [None] for sim sessions. *)

val sim_state : t -> Psm_hmm.Multi_sim.Stepper.t option
(** Sim sessions expose their stepper, so a scheduler can step it
    through {!Psm_hmm.Multi_sim.Stepper.advance} without a result pair;
    [None] for filter sessions. *)

type portable_backend =
  | Portable_sim of Psm_hmm.Multi_sim.Stepper.portable
  | Portable_filter of Psm_hmm.Filtering.Stream.portable

type portable = {
  portable_backend : portable_backend;
  portable_prev_inputs : string array option;
      (** {!step_sample}'s tracker, both modes: the previous interface
          sample as big-endian binary strings, in interface order *)
}
(** A complete resumable session state as plain data (belief or stepper
    mode, cursors, ban log, counters, previous inputs) — what a session
    checkpoint serializes, paired with the model name. Checkpoints cross
    a trust boundary, so this is explicit data to encode field by field,
    never a [Marshal] blob (crafted [Marshal] bytes can corrupt the
    decoding process). *)

val export : t -> portable

val import :
  ?filtering:Psm_hmm.Filtering.t ->
  ?plan:Psm_hmm.Multi_sim.Plan.t ->
  Persist.model ->
  portable ->
  (t, string) result
(** A session continuing exactly where {!export} was taken — stepping it
    is bit-identical to never having stopped. Every field is validated
    against [model] before any session state is built; a checkpoint that
    does not fit the model earns an [Error]. [model] must be the model
    the export was taken on; [?filtering] and [?plan] as in
    {!of_model}. *)
