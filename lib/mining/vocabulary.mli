(** The mined atomic-proposition vocabulary of an IP: the fixed, ordered
    set of atoms over which the truth matrix [m] (paper Sec. III-A) and all
    propositions are expressed. *)

type t

val create : Psm_trace.Interface.t -> Atomic.t list -> t
(** Deduplicates and orders the atoms canonically. *)

val interface : t -> Psm_trace.Interface.t
val size : t -> int
val atom : t -> int -> Atomic.t
val atoms : t -> Atomic.t array

val eval_sample : t -> Psm_bits.Bits.t array -> bool array
(** One row of the truth matrix: the truth of every atom on the sample. *)

val packed_size : t -> int
(** Bytes needed to pack one truth row: [ceil (size / 8)]. *)

val row_key : bool array -> string
(** Packed representation of a truth row, usable as a hash key: two rows
    have equal keys iff they are equal. *)

val unpack_key : t -> string -> bool array
(** Inverse of {!row_key} for keys of this vocabulary's size. *)

val literals_of_key : t -> string -> (Atomic.t * bool) list
(** The packed truth row as a conjunction of polarized atoms, in atom
    order: the semantic content of the proposition behind the key, ready
    for a theory solver. Raises [Invalid_argument] on a key of the wrong
    size. *)

val pp : Format.formatter -> t -> unit
