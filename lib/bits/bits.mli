(** Arbitrary-width bit vectors.

    A [Bits.t] is an immutable vector of [width] bits interpreted, where a
    numeric reading is needed, as an unsigned integer in little-endian limb
    order. All binary operations require operands of equal width and raise
    [Invalid_argument] otherwise. Arithmetic is performed modulo [2^width].

    This is the value domain of every signal in the reproduction: primary
    inputs and outputs of the IP models, nets of the structural netlists and
    samples of functional traces. *)

type t

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w]. Raises [Invalid_argument]
    if [w <= 0]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] is the low [width] bits of [n]. [n] must be
    non-negative. *)

val of_int64 : width:int -> int64 -> t
(** [of_int64 ~width n] is the low [width] bits of [n] read as an unsigned
    64-bit value. *)

val of_bool : bool -> t
(** [of_bool b] is the 1-bit vector holding [b]. *)

val of_binary_string : string -> t
(** [of_binary_string "1010"] builds a vector from a big-endian binary
    literal (most significant bit first); underscores are ignored. The width
    is the number of binary digits. *)

val of_binary_sub : width:int -> string -> pos:int -> len:int -> t
(** [of_binary_sub ~width s ~pos ~len] reads the [len] characters of [s]
    at [pos] as big-endian binary digits into a vector of width [width]:
    the last character is bit 0, and the bits above [len] are 0. No
    intermediate string is made. Raises [Invalid_argument] if the span is
    outside [s], if [len > width], or if a character is not ['0'] or
    ['1']. *)

val of_hex_string : width:int -> string -> t
(** [of_hex_string ~width s] parses a big-endian hexadecimal literal;
    underscores are ignored. Raises [Invalid_argument] if the value does not
    fit in [width] bits. *)

val init : width:int -> (int -> bool) -> t
(** [init ~width f] is the vector whose bit [i] is [f i]. *)

(** {1 Observation} *)

val width : t -> int

val get : t -> int -> bool
(** [get v i] is bit [i] (bit 0 is the least significant). Raises
    [Invalid_argument] when out of range. *)

val to_int : t -> int
(** Unsigned value as an OCaml [int]. Raises [Failure] if the value does not
    fit in 62 bits. *)

val to_int64 : t -> int64
(** Unsigned value as an [int64] (the low 64 bits when wider). Raises
    [Failure] if a bit above position 63 is set. *)

val to_binary_string : t -> string
(** Big-endian binary rendering, exactly [width] characters. *)

val to_hex_string : t -> string
(** Big-endian hexadecimal rendering, [ceil (width/4)] characters. *)

val popcount : t -> int
(** Number of set bits. *)

val is_zero : t -> bool

(** {1 Bitwise and arithmetic operations} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val add : t -> t -> t
(** Modulo [2^width]. *)

val sub : t -> t -> t
(** Modulo [2^width]. *)

val mul : t -> t -> t
(** Modulo [2^width]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val rotate_left : t -> int -> t
val rotate_right : t -> int -> t

(** {1 Structure} *)

val slice : t -> hi:int -> lo:int -> t
(** [slice v ~hi ~lo] extracts bits [lo..hi] inclusive as a vector of width
    [hi - lo + 1]. *)

val concat : t -> t -> t
(** [concat hi lo] places [hi] above [lo]: the result has width
    [width hi + width lo] and its low bits are [lo]. *)

val concat_list : t list -> t
(** [concat_list [a; b; c]] is [concat a (concat b c)]: head is most
    significant. Raises [Invalid_argument] on the empty list. *)

val set : t -> int -> bool -> t
(** Functional single-bit update. *)

(** {1 Comparisons and metrics} *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Unsigned comparison; vectors of different widths compare by width
    first. *)

val ult : t -> t -> bool
(** Unsigned less-than; requires equal widths. *)

val hamming_distance : t -> t -> int
(** [popcount (logxor a b)]; requires equal widths. This drives both the
    reference power model's switching activity and the paper's
    linear-regression calibration of data-dependent states. *)

val hash : t -> int
(** Consistent with {!equal}; non-negative, mixed over all bits (a
    table may mask the low bits) and allocation-free. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal with a width prefix, e.g. [8'h3a]. *)

val pp_binary : Format.formatter -> t -> unit
