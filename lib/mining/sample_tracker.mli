(** The sample-level front end of an online stepper: each raw interface
    sample becomes (input Hamming distance to the previous sample,
    proposition classification), as the offline evaluators compute them
    from {!Psm_trace.Functional_trace.input_hamming_series} and
    {!Prop_trace.Table.classify}.

    The tracker owns a private copy of the previous sample and that
    sample's classification. A sample equal to the previous one has
    Hamming distance 0 and the same truth row, so it costs one array
    comparison and allocates nothing: the common case on idle-heavy
    traces. *)

type t

val create : Prop_trace.Table.t -> t
(** A tracker with no previous sample; the input indexes are the primary
    inputs of the table's vocabulary interface. *)

val observe : t -> Psm_bits.Bits.t array -> unit
(** Advance to [sample]. Afterwards {!hamming} and {!classification}
    describe it. The first sample has Hamming distance 0. *)

val hamming : t -> float
(** Input Hamming distance of the last observed sample to the one before
    it (0 before any sample). *)

val classification : t -> int option
(** [Table.classify] of the last observed sample ([None] = unknown
    behaviour, or no sample yet). *)

val export : t -> string array option
(** The previous sample as big-endian binary strings in interface order,
    [None] before any sample: the portable checkpoint form. *)

val restore : t -> string array option -> (unit, string) result
(** Replace the previous sample with an {!export}ed one. Checkpoints are
    untrusted input: arity and every signal width are validated against
    the table's interface, and on [Error] the tracker is unchanged. *)
