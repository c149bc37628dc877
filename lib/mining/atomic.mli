(** Atomic propositions (paper Def. 1): logic formulas over the PIs/POs of
    the model with no logic connectives — relations between one signal and
    a constant, or between two signals of equal width (e.g. the paper's
    Fig. 3 atoms [v1 = true], [v2 = false], [v3 > v4]). *)

type comparison = Eq | Lt | Gt

type operand =
  | Const of Psm_bits.Bits.t
  | Sig of int  (** Interface signal index. *)

type t = {
  lhs : int;  (** Interface signal index. *)
  cmp : comparison;
  rhs : operand;
}

val eq_const : int -> Psm_bits.Bits.t -> t
val compare_signals : comparison -> int -> int -> t

val holds : comparison -> Psm_bits.Bits.t -> Psm_bits.Bits.t -> bool
(** [holds cmp a b] is [a cmp b], unsigned. *)

val eval : t -> Psm_bits.Bits.t array -> bool
(** Truth of the atom on one functional-trace sample (unsigned
    comparisons). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val negate : t -> t list
(** The negation of the atom as a disjunction of atoms over the same
    operands: unsigned trichotomy gives [¬(a = b) ⇔ a < b ∨ a > b],
    [¬(a < b) ⇔ a = b ∨ a > b] and [¬(a > b) ⇔ a = b ∨ a < b]. [Eq] has
    no single-atom negation in the fragment, hence the list. *)

val pp : Psm_trace.Interface.t -> Format.formatter -> t -> unit
(** Renders like [we = 1] or [wdata > rdata]. *)

val to_string : Psm_trace.Interface.t -> t -> string
