(** Run-length structure of a trace: the maximal stretches of identical
    samples, as run start offsets. Built incrementally during ingestion
    (see {!Functional_trace.Builder}) or lazily on demand; consumed by
    the run-aware mining/training/classification paths. These are the
    only trace walks in the library; the per-cycle reference they must
    match bit-for-bit lives in the test suite ([test/per_cycle.ml]),
    not behind a library switch. *)

type t

val count : t -> int
(** Number of maximal runs. *)

val total : t -> int
(** Number of instants covered (the trace length). *)

val start : t -> int -> int

val compression : t -> float
(** [count / total] — 1.0 means incompressible, small means long runs.
    1.0 for the empty trace. *)

val mean_run : t -> float
val max_run : t -> int

val iter : t -> (index:int -> start:int -> len:int -> unit) -> unit
(** Runs in time order. *)

val histogram : t -> (int * int) list
(** Power-of-two run-length histogram: [(b, c)] counts the [c] runs with
    length in [2^b, 2^(b+1)), ascending in [b]. *)

val scan : equal:(int -> int -> bool) -> int -> t
(** [scan ~equal n] computes the run structure of a length-[n] sequence,
    where [equal i j] decides whether instants [i] and [j] carry the same
    sample. *)

val of_starts : length:int -> int array -> t
(** Run starts in increasing order (the incremental builder's
    accumulator); validates coverage of [0, length). *)

val pp : Format.formatter -> t -> unit
