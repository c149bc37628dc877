(** The estimation front end: the one place where raw interface samples
    become observations — a proposition code ({!Prop_trace.Table.code}:
    the id, or -1 for an unknown behaviour) and the input Hamming
    distance to the previous sample. Every estimator is fed from here:
    the online sessions sample by sample through {!observe}, the
    whole-trace evaluators and the serve engine's VCD uploads run by run
    through {!iter_runs}.

    The tracker keeps the previous sample in a buffer of its own,
    overwritten in place, and the code and distance as unboxed fields,
    so {!observe} allocates nothing. A sample equal to the previous one
    has distance 0 and the same code, and costs one array comparison. *)

type t

val create : Prop_trace.Table.t -> t
(** A tracker with no previous sample; the input indexes are the primary
    inputs of the table's vocabulary interface. *)

val observe : t -> Psm_bits.Bits.t array -> unit
(** Advance to [sample], which must have the interface's arity (raises
    [Invalid_argument] otherwise). Afterwards {!code} and {!hamming}
    describe it. The first sample has Hamming distance 0. *)

val reset : t -> unit
(** Forget the previous sample: the next one observed is a first sample,
    with Hamming distance 0. *)

val code : t -> int
(** The proposition code of the last observed sample (-1 = unknown
    behaviour, or no sample yet). *)

val hamming : t -> float
(** Input Hamming distance of the last observed sample to the one before
    it (0 before any sample). *)

val distance : t -> int
(** {!hamming} as an int, for callers that store it unboxed. *)

val iter_runs :
  Prop_trace.Table.t ->
  Psm_trace.Functional_trace.t ->
  (start:int -> len:int -> code:int -> distance:int -> unit) ->
  unit
(** [iter_runs table trace f] walks [trace] as its own sequence of
    samples, calling [f ~start ~len ~code ~distance] once per
    {!Psm_trace.Functional_trace.iter_runs} run, in time order, with one
    classification per run. [distance] ({!distance}: an int, so the call
    boxes nothing) belongs to the run's first instant (0 for the trace's
    first); every later instant of the run has distance 0. This is
    {!observe} on every instant, run by run. *)

val export : t -> string array option
(** The previous sample as big-endian binary strings in interface order,
    [None] before any sample: the portable checkpoint form. *)

val restore : t -> string array option -> (unit, string) result
(** Replace the previous sample with an {!export}ed one. Checkpoints are
    untrusted input: arity and every signal width are validated against
    the table's interface, and on [Error] the tracker is unchanged. *)
