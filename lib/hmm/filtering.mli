(** Forward filtering over the PSM HMM — the paper's "state-of-the-art
    procedure to predict the distribution of the next (hidden) states
    according to a sequence of observations" (Sec. V), in its textbook
    form: the normalized α recursion

      α₀(j) ∝ π(j)·b_j(o₀)
      αₜ(j) ∝ b_j(oₜ) · Σᵢ αₜ₋₁(i)·A'(i,j)

    over the interned propositions as observations, with the same
    dwell-corrected per-instant transition matrix A' as {!Offline} (the
    PSM's A counts state *changes*; per-instant dynamics need the
    self-dwell mass). Unknown observations are uninformative; a
    proposition outside the model's table has the floored emission in
    every state.

    There is one implementation of the recursion, {!Stream.step}: the
    whole-trace entry points below run it over a fresh {!Stream.state}.

    {!Multi_sim} keeps its cheaper assertion-cursor machinery for live
    co-simulation; this module provides the probabilistic view — state
    posteriors, smoothed power expectation — for analysis. *)

type t

val create : Hmm.t -> t
(** Builds the dwell-corrected A' once, in CSR form for the scalar
    recursion and CSC form for the batched {!Stream.sweep}, and the
    emission row of every proposition code. Nothing writes a [t]
    afterwards, so one may serve any number of sessions and queries. *)

val posteriors : t -> int option array -> float array array
(** [posteriors f observations] — one normalized belief vector (over state
    rows) per instant. *)

val map_states : t -> int option array -> int array
(** Per-instant marginal MAP state rows (argmax of each posterior). *)

val expected_power : t -> Psm_trace.Functional_trace.t -> float array
(** Power estimate as the posterior-weighted mean of the state outputs —
    a soft alternative to committing to one state per instant. The
    observations come from {!Psm_mining.Sample_tracker.iter_runs}. *)

val log_likelihood : t -> int option array -> float
(** Log observation likelihood under the model (from the normalization
    constants) — a model-fit diagnostic: a trace from a different workload
    family scores visibly lower per instant. *)

(** Streaming per-session filtering — the serve hot path. A [state] is
    one session's belief; {!Stream.step} advances it by one observation.
    The whole-trace entry points are loops of {!Stream.step}, so a
    session stepped observation by observation is bit-identical to them
    on the whole sequence. {!Stream.sweep} advances many sessions
    sharing one {!t} in a single batched kernel sweep (CSC traversal
    amortized across sessions, fused monomorphic emission/normalize/
    scoring) — bit-identical to calling {!Stream.step} on each session,
    measurably faster per session·cycle.

    A [state] owns its buffers and holds no closures; {!Stream.export} /
    {!Stream.import} expose it as validated plain data for checkpointing
    (never [Marshal]-decode a [state] from an untrusted source). Stream
    operations treat the shared [t] as read-only — they consult the
    precomputed A' / emission tables but write only through the [state]s
    passed in — so disjoint [state] sets may be stepped concurrently from
    distinct domains even when they share one [t]; the serve engine relies
    on this contract to share one [t] across all of a model's sessions.
    Any future change that writes to [t] breaks that contract. *)
module Stream : sig
  type state

  val make : t -> state
  (** A fresh session: no observation consumed yet. *)

  val copy : state -> state
  (** Deep copy (checkpointing; the original keeps streaming). *)

  type portable = { p_steps : int; p_log_lik : float; p_belief : float array }
  (** A [state] as plain validated data — the only way session
      checkpoints cross a trust boundary (the serve wire encodes this,
      never [Marshal] bytes). *)

  val export : state -> portable
  (** Copies; the original keeps streaming. *)

  val import : t -> portable -> (state, string) result
  (** Validates every field against [t]'s model (belief length, finite
      non-negative mass, step count) before building the session;
      importing an {!export} resumes bit-identically. *)

  val steps : state -> int
  (** Observations consumed so far. *)

  val log_likelihood : state -> float
  (** Cumulative log likelihood of the consumed observations. *)

  val belief : state -> float array
  (** The current normalized belief over state rows — borrowed, reused by
      the next step; copy what you keep. Meaningless before the first
      step. *)

  val step : t -> state -> int -> unit
  (** Advance one observation: a proposition code
      ({!Psm_mining.Prop_trace.Table.code}; -1 = unclassified sample,
      uninformative; a code outside the table has the floored emission).
      Allocates nothing after a state's first step. *)

  val map_state : t -> state -> int
  (** Marginal MAP state row of the current belief (ties to the lowest
      row, as {!map_states}). *)

  val power : t -> state -> hamming:float -> float
  (** Posterior-weighted mean of the state outputs at this instant — the
      streaming counterpart of one {!expected_power} sample. *)

  val sweep :
    t ->
    state array ->
    int array ->
    hds:float array ->
    powers:float array ->
    rows:int array ->
    unit
  (** One scored batched sweep: [states.(k)] consumes [codes.(k)] with
      {!step}'s arithmetic exactly, and [powers.(k)] / [rows.(k)] are
      filled with what {!power} [~hamming:hds.(k)] / {!map_state} would
      return afterwards — computed inside the normalize pass, same
      visit order and guards, so all three outputs are bit-identical to
      the unfused pipeline. This is the serve hot path.
      @raise Invalid_argument on length mismatch. *)
end
