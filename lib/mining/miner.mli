(** Phase 1 of the mining procedure (paper Sec. III-A, after [9]): extract
    atomic propositions that hold frequently — and stably, i.e. over
    subtraces rather than flickering — on a set of functional traces.

    Candidates are
    - [signal = constant] for every value a signal exhibits, and
    - [signal ⋈ signal] (=, <, >) for same-width signal pairs,

    filtered by three criteria over the training traces:
    - *support*: the fraction of instants where the atom holds must be at
      least [min_support];
    - *stability*: the mean length of its runs of consecutive true instants
      must be at least [min_mean_run];
    - *uniform stability*: at most [max_short_run_fraction] of its runs may
      be shorter than [min_mean_run]. Mean run length alone is fooled by an
      atom that is rock-stable in one workload phase and flickers every
      cycle in another (e.g. a comparison between a random data bus and a
      registered output); the short-run fraction catches exactly that.

    Together the stability criteria are what "holds in a set of subtraces"
    (paper Sec. III-A) means operationally.

    The [support] of the *false* polarity needs no separate atom: the
    proposition construction of {!Prop_trace} works on complete truth rows,
    so a single atom distinguishes both polarities. *)

type config = {
  min_support : float;  (** In (0, 1]; default 0.01. *)
  min_mean_run : float;  (** Default 4.0. *)
  max_consts_per_signal : int;
      (** Top-k by support; default 4. Among constants of equal support
          the value first seen in the training traces wins (a value
          dropped by the hapax prune and seen again counts from its
          return). *)
  max_short_run_fraction : float;  (** Default 0.25. *)
  max_const_signal_width : int;
      (** Signals wider than this never produce [signal = constant] atoms:
          enumerating the values of a wide data bus both explodes the
          proposition space and encodes workload data into the PSM
          structure. Default 32. *)
  mine_pairs : bool;  (** Default true. *)
  max_pair_signal_width : int;  (** Default 64. *)
}

val default : config

val mine_vocabulary :
  ?config:config ->
  Psm_trace.Functional_trace.t list ->
  Vocabulary.t
(** One shared vocabulary over all training traces (they must share an
    interface). Raises [Invalid_argument] on an empty list or mismatched
    interfaces.

    The traces go through one {!Incremental} run, run by run, with
    {!Incremental.end_trace} after each: every run of identical samples
    pays one bulk counter update per signal and one three-way
    comparison per signal pair, scoring the [=], [<] and [>] atoms at
    once. *)

type atom_stats = {
  atom : Atomic.t;
  support : float;
  mean_run : float;
  occurrences : int;
  runs : int;
  short_runs : int;  (** Runs shorter than [min_mean_run]. *)
}

(** {1 Push-mode mining}

    The counters behind {!mine_vocabulary}, fed one sample or one run of
    equal samples at a time — also the vocabulary-mining half of the
    streaming trainer. Feeding every training trace in order (with
    {!Incremental.end_trace} after each) gives {!mine_vocabulary}'s
    vocabulary. *)
module Incremental : sig
  type t

  val create : ?config:config -> Psm_trace.Interface.t -> t
  val observe : t -> Psm_bits.Bits.t array -> unit
  (** One training sample, in time order. O(#narrow signals + #pairs). *)

  val observe_run : t -> Psm_bits.Bits.t array -> int -> unit
  (** [observe_run t sample len] is exactly [len] successive
      [observe t sample] calls, collapsed to one bulk counter update per
      signal and one comparison per pair. Raises [Invalid_argument] on
      [len <= 0]. *)

  val end_trace : t -> unit
  (** Close the current trace: open runs end here and cannot bridge into
      the next trace's samples. *)

  val interface : t -> Psm_trace.Interface.t
  val total : t -> int
  (** Samples observed so far. *)

  val candidate_stats : t -> atom_stats list
  (** Every scored candidate so far, before filtering: the constants
      signal by signal, each signal's in first-seen order, then the pair
      atoms. Reentrant (observation may continue afterwards). *)

  val vocabulary : t -> Vocabulary.t
  (** The vocabulary {!mine_vocabulary} would give for the samples so
      far: {!candidate_stats} filtered by the three criteria, the
      constants capped per signal. Only constants whose support reaches
      [min_support] are scored; the rest could not pass. Raises
      [Invalid_argument] before any sample was observed. *)
end

(** Occurrence and run counting for one signal's values, with periodic
    pruning of hapax values so wide random buses cannot blow up memory.
    Exposed for testing; {!mine_vocabulary} is the real entry point.

    One open-addressing table: the entries (value, occurrences, runs,
    short runs, current run length, last instant) sit in first-seen
    order as parallel arrays, and an [int] slot array, probed linearly
    from {!Psm_bits.Bits.hash}, maps a value to its entry; the entry hit
    last is checked before hashing. Observing a known value costs one
    hash-and-compare (none on a repeat of the last value) and allocates
    nothing; a new value appends an entry, doubling the arrays when
    full. *)
module Value_counter : sig
  type t

  val create : ?prune_at:int -> short_below:int -> unit -> t
  (** [prune_at] (default 100_000) caps the number of distinct tracked
      values: whenever an observation leaves more than [prune_at]
      entries, every value observed only once (the new one included) is
      dropped. The survivors keep their order; a dropped value seen
      again enters at the end. *)

  val observe : t -> int -> Psm_bits.Bits.t -> unit
  (** [observe t time v]: the signal held value [v] at [time]. Times must
      be strictly increasing across calls. *)

  val observe_run : t -> int -> Psm_bits.Bits.t -> int -> unit
  (** [observe_run t time v len] is exactly [len] successive [observe]s
      of [v] at [time, time + len): the repeated cycles update the entry
      the first one found by bulk arithmetic (cycle by cycle only while
      the hapax prune keeps dropping [v]). *)

  val length : t -> int
  (** Distinct values tracked. *)

  val iter :
    (Psm_bits.Bits.t -> occ:int -> runs:int -> short_runs:int -> unit) -> t -> unit
  (** Visits the values in first-seen order with their occurrences, runs
      and short runs, each value's still-open final run closed. Never
      mutates the counter, so iterating is reentrant and [observe] may
      continue afterwards. *)
end
