(** Power traces (paper Def. 2): the dynamic energy consumption of the model
    at each simulation instant, δᵢ = ½·V²dd·f·C·α(tᵢ). *)

type t

val valid_energy : float -> bool
(** Finite and non-negative: what every reader accepts as a power
    sample. *)

val of_array : float array -> t
(** The array is copied. Raises [Invalid_argument] on an entry that is
    not {!valid_energy} (negative, NaN or infinite). *)

val of_column : float Column.t -> t
(** The trace readers' constructor: one copy of a column whose every
    value the reader has already checked with {!valid_energy}, so none
    is checked again. [Column] is private to this library, so no caller
    outside it can reach this. *)

val length : t -> int
val get : t -> int -> float

val to_array : t -> float array
(** A copy. *)

val attributes : t -> start:int -> stop:int -> float * float * int
(** [attributes t ~start ~stop] is the power-attribute triplet ⟨μ, σ, n⟩ of
    the inclusive interval: mean, sample standard deviation and number of
    instants (paper Sec. III-B, [getPowerAttributes]). *)

val total_energy : t -> float

val mean : t -> float

val sub : t -> start:int -> stop:int -> t

val append : t -> t -> t

val mean_relative_error : reference:t -> estimate:t -> float
(** MRE between a reference trace and an estimated one of the same length:
    mean over instants of |est − ref| / |ref|, skipping instants where the
    reference is zero (they contribute only through the absolute term
    |est|/μ_ref to avoid division by zero). This is the accuracy metric of
    the paper's Tables II and III. *)

val pp_summary : Format.formatter -> t -> unit
