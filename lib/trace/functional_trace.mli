(** Functional traces (paper Def. 2): the evaluation of every interface
    signal at each simulation instant. *)

type t

(** {1 Construction} *)

module Builder : sig
  type trace := t
  type t

  val create : Interface.t -> t

  val append : t -> Psm_bits.Bits.t array -> unit
  (** Append one sample; the array must be aligned with the interface
      (length and per-signal widths are checked). The array is copied. *)

  val repeat : t -> unit
  (** Append the previous sample again: the new instant shares its row
      and extends its run, with no compare and no copy. Raises
      [Invalid_argument] on an empty builder. *)

  val adopt : t -> Psm_bits.Bits.t array -> unit
  (** Append [row] as the first instant of a new run, without checking or
      copying it. The caller guarantees that [row] is aligned with the
      interface, differs from the previous sample, and is never mutated
      afterwards (later instants may share it). This is how the VCD
      reader hands over its held sample. *)

  val length : t -> int
  val finish : t -> trace
end

val of_samples : Interface.t -> Psm_bits.Bits.t array array -> t
(** Validates every sample as {!Builder.append} does. *)

(** {1 Observation} *)

val interface : t -> Interface.t

val length : t -> int
(** Number of simulation instants. *)

val value : t -> time:int -> signal:int -> Psm_bits.Bits.t
(** Value of signal index [signal] at instant [time]. *)

val value_by_name : t -> time:int -> string -> Psm_bits.Bits.t

val sample : t -> time:int -> Psm_bits.Bits.t array
(** Copy of the full sample at [time]. *)

val iter : (int -> Psm_bits.Bits.t array -> unit) -> t -> unit
(** [iter f t] calls [f time sample] in time order; the sample array must
    not be mutated. *)

val runs : t -> Runs.t
(** Run-length structure of the trace (maximal stretches of identical
    samples). Computed incrementally during {!Builder} ingestion; derived
    lazily (one O(T) equality scan, then cached) for traces assembled any
    other way. *)

val iter_runs : (start:int -> len:int -> Psm_bits.Bits.t array -> unit) -> t -> unit
(** [iter_runs f t] calls [f ~start ~len sample] once per maximal run of
    identical samples, in time order; [sample] is the shared row for the
    [len] instants [start, start + len) and must not be mutated. *)

val sub : t -> start:int -> stop:int -> t
(** Inclusive time window as a new trace. *)

val append : t -> t -> t
(** Concatenate two traces over the same interface. *)

val input_hamming_series : t -> float array
(** Element [i] is the Hamming distance between the concatenated
    primary-input values at instants [i] and [i - 1]; element 0 is 0.
    This is the regressor of the data-dependent-state calibration.
    Only a run's first instant can be non-zero, so only run starts are
    compared (see {!runs}). *)

val same_sample : Psm_bits.Bits.t array -> Psm_bits.Bits.t array -> bool
(** Whether two samples have the same arity and equal values on every
    signal — the equality the run structure is built on. *)

val input_hamming : int list -> Psm_bits.Bits.t array -> Psm_bits.Bits.t array -> int
(** [input_hamming inputs a b] sums the Hamming distances between [a] and
    [b] over the signal indexes [inputs] (in practice the interface's
    primary inputs): one element of {!input_hamming_series}. *)

val equal : t -> t -> bool
val pp_summary : Format.formatter -> t -> unit
