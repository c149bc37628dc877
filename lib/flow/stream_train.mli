(** Streaming incremental training on top of {!Psm_trace.Vcd.stream}.

    The batch {!Flow.train} holds every training trace in memory; this
    trainer consumes pushed cycles one at a time and keeps only O(model)
    state live:

    - mining counters ({!Psm_mining.Miner.Incremental}) during the first
      pass over the data,
    - during the second pass, the open XU run's sample buffers, a
      static cascade of {!Psm_core.Simplify.max_simplify_passes} levels
      replaying the bounded simplify iteration one greedy pass per
      level, and the join pass's open clusters — plus regression
      sufficient statistics and proposition-occurrence counts per
      segment, so the data-dependent-state optimization and the HMM need
      no retained traces either.

    Each raw segment enters the cascade as soon as its XU triplet is
    released, and chain-edge occurrences are counted per join cluster as
    segments are absorbed, so live memory tracks the model size, not the
    trace length. The result is *bit-identical in structure* to the
    batch flow (same optimized PSM, same HMM inputs); the floating-point
    attributes agree to the exact Chan-merge arithmetic the batch path
    uses. *)

type result = {
  config : Flow.config;
  table : Psm_mining.Prop_trace.Table.t;
  optimized : Psm_core.Psm.t;  (** After simplify, join and optimize. *)
  optimize_reports : Psm_core.Optimize.report list;
  hmm : Psm_hmm.Hmm.t;
  transition_counts : ((int * int) * float) list;
  emission_counts : ((int * int) * float) list;
  analysis : Psm_analysis.Finding.t list;
      (** Analyzer findings over the final model. Streaming keeps no
          training traces, so Γ/power-dependent rules are skipped; the
          structural and HMM rules run in full. *)
  timings : Flow.timings;
      (** [mine_s] is the vocabulary freeze in {!Trainer.finish_mining};
          [generate_s] is the time {!Trainer.finish} spends closing the
          simplify cascade's open runs into the join clusters. The rest
          of generation (XU recognition, the cascade, join absorption)
          runs inside {!Trainer.push}, interleaved with the caller's own
          work, and is not timed: bracket the pushes to measure it.
          [combine_s] covers the join fixpoint, optimization and the HMM
          build; [analyze_s] the analyzer. *)
  cycles : int;  (** Training-phase samples consumed. *)
  traces_seen : int;  (** Completed training traces. *)
  compactions : int;
      (** Always 0: segments enter the pipeline as they are released,
          with no batched compaction. Kept for callers that still
          report it. *)
}

(** Two-phase push trainer. Phase 1 ([`Mining]) feeds the vocabulary
    miner; {!Trainer.finish_mining} freezes the proposition vocabulary;
    phase 2 ([`Training]) feeds the generation pipeline. Both phases
    consume the same trace stream — callers re-stream their source
    between the phases (mirroring the two passes every mining-based
    method needs over its training set). *)
module Trainer : sig
  type t

  val create :
    ?config:Flow.config ->
    ?provenance:[ `Full | `Counts ] ->
    Psm_trace.Interface.t ->
    t
  (** [provenance] (default [`Full]) controls per-occurrence metadata.
      [`Full] matches the batch machine verbatim, including every
      {!Psm_core.Power_attr.t} interval and one component per merged
      member — which necessarily grows with the number of segment
      occurrences. [`Counts] keeps only the sufficient statistics:
      interval lists stay empty and components with equal assertions are
      folded together, so live memory (and the final model) is bounded
      by the number of distinct behaviors. States, transitions,
      assertions, ⟨μ, σ, n⟩ and the HMM counts are unaffected. *)

  val push : t -> Psm_bits.Bits.t array -> power:float -> unit
  (** One sample, in time order; the array is copied where retained, so
      callers may reuse it. [power] is ignored during [`Mining]. Raises
      [Invalid_argument] on an arity mismatch with the interface. *)

  val end_trace : t -> unit
  (** Close the current trace; runs and chain edges never bridge traces.
      Raises [Invalid_argument] on an empty training trace. *)

  val finish_mining : t -> unit
  (** Freeze the mined vocabulary and switch to the training phase. *)

  val finish : t -> result
  (** Close the pipeline and produce the final model. An open trace is
      closed implicitly. Raises [Invalid_argument] while still mining or
      when no training trace was consumed. *)

  val interface : t -> Psm_trace.Interface.t
  val phase : t -> [ `Mining | `Training ]
  val cycles : t -> int

  (** Traces completed in the current phase (reset by
      {!finish_mining}). *)
  val traces : t -> int

  val table : t -> Psm_mining.Prop_trace.Table.t
  (** Raises [Invalid_argument] while still mining. *)
end

(** Checkpoint / restore of an in-flight trainer, so a long capture can
    survive restarts. The format is a ["psm-repro-trainer 4"] version
    line, one human-readable summary line, then the marshaled trainer
    state (config excluded — it is re-supplied on restore, keeping the
    payload closure-free). Checkpoints are whole-process artifacts: they
    are not portable across architectures or compiler versions, unlike
    {!Persist} model files. *)
module Checkpoint : sig
  exception Restore_error of string

  val version_line : string

  val save_file : string -> Trainer.t -> unit

  val load_file : ?config:Flow.config -> string -> Trainer.t
  (** Raises {!Restore_error} on a bad header (an older version line
      included, naming the line found and the one expected) or a
      corrupt payload. *)
end

exception Too_many_samples of { path : string; gap_from : int; gap_to : int; filled : int }
(** Raised by {!train_stream} when the timestamp gap [#gap_from..#gap_to]
    of file [path] would bring the held samples its gaps fill to
    [filled], more than {!Psm_trace.Vcd.max_samples} — a few bytes of
    far-apart timestamps would otherwise cost that many pushes. Only
    gap filling counts: a file with a timestamp on every grid point
    streams at any length. Nothing of the refused gap is pushed. *)

(** Re-expansion of a file's raw per-timestamp samples onto the uniform
    [period] grid, as the batch {!Psm_trace.Vcd} resampler does: each
    grid point takes the latest values at or before it, and the grid
    extends one point past a final off-grid timestamp. {!train_stream}
    runs one per file with [limit] = {!Psm_trace.Vcd.max_samples}. *)
module Resample : sig
  type t

  val create :
    path:string ->
    period:int ->
    limit:int ->
    (Psm_bits.Bits.t array -> power:float -> unit) ->
    t
  (** Grid samples go to the callback. Raises [Invalid_argument] unless
      [period > 0]. *)

  val push : t -> time:int -> Psm_bits.Bits.t array -> power:float -> unit
  (** The sample at [time] (strictly increasing). Raises
      {!Too_many_samples} (with [path]) before pushing anything when the
      held samples filling this file's gaps would pass [limit]. *)

  val finish : t -> unit
  (** Pushes the held last sample when the final timestamp was off the
      grid. *)
end

val train_stream :
  ?config:Flow.config ->
  ?unknowns:Psm_trace.Reader.unknown_policy ->
  ?period:int ->
  ?provenance:[ `Full | `Counts ] ->
  ?checkpoint:string ->
  string list ->
  result
(** Stream every VCD file (which must carry the [__power__] real
    variable and share one interface) through the trainer twice — a
    mining pass, then a training pass — without ever materializing a
    trace. Raw per-timestamp samples are re-expanded onto the uniform
    [period] grid (default 1) exactly as the batch {!Flow.load_vcd}
    resampler does at the same [period], so the result matches
    {!Flow.train_on_vcd_files} given the same files and the same
    [period]. The two defaults differ: batch infers the GCD of the
    timestamp deltas, streaming cannot and uses 1. Raises
    {!Too_many_samples} on a file whose timestamp gaps would fill more
    than {!Psm_trace.Vcd.max_samples} grid points.

    With [checkpoint], the trainer state is saved to that path after
    every completed file (and after the mining pass is sealed); if the
    path already exists the run resumes from it, skipping the files the
    checkpoint had fully consumed — pass the same file list in the same
    order. The checkpoint is deleted once training completes. *)

val train_traces :
  ?config:Flow.config ->
  ?provenance:[ `Full | `Counts ] ->
  traces:Psm_trace.Functional_trace.t list ->
  powers:Psm_trace.Power_trace.t list ->
  unit ->
  result
(** In-memory variant (both phases over the given lists) — the streamed
    counterpart of {!Flow.train}, used by the equivalence tests. *)
