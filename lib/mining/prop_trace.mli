(** Phase 2 of the mining procedure: propositions and proposition traces.

    A proposition is the AND-composition of one complete row of the truth
    matrix [m] — every atom of the vocabulary appears either positively or
    negated — so distinct propositions are mutually exclusive and, over the
    rows actually observed, exactly one holds at each instant (paper
    Def. 2's requirement on [Prop]).

    Propositions are interned in a {!Table}: equal truth rows are the same
    proposition across all traces of the same IP, which is what later
    makes temporal assertions comparable across PSMs during [join]. *)

module Table : sig
  type t

  val create : Vocabulary.t -> t
  val vocabulary : t -> Vocabulary.t

  val prop_count : t -> int

  val classify_or_add : t -> Psm_bits.Bits.t array -> int
  (** Proposition id of the sample's truth row, interning it if new
      (training-time use). *)

  val code : t -> Psm_bits.Bits.t array -> int
  (** Proposition id of the sample's truth row, or -1 when the row was
      never seen during training — an unknown functional behaviour
      (simulation-time use). Allocates nothing. The table keeps the last
      truth row it evaluated and the values it evaluated it on: an atom
      whose operands are physically the values it last saw is not
      evaluated again, so consecutive samples that share their unchanged
      values cost only the atoms over the changed ones. This state makes
      a table single-domain. *)

  val classify : t -> Psm_bits.Bits.t array -> int option
  (** {!code} with [None] for -1. *)

  type saved
  (** The table's propositions in a fixed layout, without its index or
      classification state: what a marshaled checkpoint holds, so
      checkpoints outlive changes to how the table finds its rows. *)

  val save : t -> saved

  val restore : saved -> t
  (** The table [save] was given: the same vocabulary and propositions
      under the same ids. *)

  val intern_row : t -> bool array -> int
  (** Intern a truth row directly (model reload); the row must have
      exactly [Vocabulary.size] entries. Idempotent on equal rows. *)

  val row : t -> int -> bool array
  (** The truth row of a proposition. *)

  val true_atoms : t -> int -> Atomic.t list

  val name : t -> int -> string
  (** Stable display name in first-interned order: p_a, p_b, …, p_z,
      p_aa, … *)

  val pp_prop : t -> Format.formatter -> int -> unit
  (** Renders the positive literals, Fig. 3 style:
      [p_a: we = 1 & ce = 1]. *)
end

type t
(** A proposition trace Γ: one proposition id per instant. *)

val of_functional : Table.t -> Psm_trace.Functional_trace.t -> t
(** Classifies (and interns) every instant, once per run of identical
    samples, in one sequential walk: new truth rows get ids in order of
    first occurrence, and the segments of {!segments} are built along
    the way. *)

val table : t -> Table.t
val length : t -> int
val prop_at : t -> int -> int

val prop_ids : t -> int array
(** A copy of Γ as raw ids. *)

val segments : t -> (int * int * int) list
(** Maximal constant runs as [(prop, start, stop)] triples, in order —
    a convenience view used by tests and reports, built by
    {!of_functional}. *)

val iter_prop_runs : t -> start:int -> stop:int -> (int -> start:int -> len:int -> unit) -> unit
(** [iter_prop_runs t ~start ~stop f] calls [f prop ~start ~len] once per
    maximal constant stretch of Γ intersected with the inclusive window
    [start, stop], in time order. O(log #segments + #covered segments)
    via the segment view. *)

val holds_exactly_one : t -> Psm_trace.Functional_trace.t -> bool
(** Validates the Def. 2 invariant against the originating functional
    trace: at every instant the recorded proposition (and no other
    interned proposition) holds. *)

val pp : Format.formatter -> t -> unit
