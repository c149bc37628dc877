(** The working machine of the combine stage: flat tables indexed by
    {e slot}, and one {!Psm.t} built at the end. {!Psm_flow.Flow.train}
    runs {!Simplify.simplify_table} and then {!Join.join_table} on one
    table and builds the machine once; [simplify_traced] and
    [join_traced] each run one stage on a table of their own.

    Slots are the order a merge pass visits states. They start in the
    input's id order. After every {!merge} they follow the canonical
    (training) order: (trace, start) of each state's first interval, then
    the id {!Psm.merge_clusters} would have given it (the old id for a
    kept state, one past the machine's largest id, in cluster order, for a
    merged one). A sequence of merges followed by {!to_psm} therefore
    builds exactly the machine and redirect map that [merge_clusters]
    followed by a canonical renumbering after every pass would, without
    rebuilding the ordered state map and transition set each time. *)

type t = private {
  input : Psm.t;
  mutable n : int;  (** Live slots. *)
  mutable ids : int array;  (** Each slot's id in the current machine. *)
  mutable bound : int;  (** {!Psm.id_bound} of the current machine. *)
  mutable assertions : Assertion.t array;
  mutable attrs : Power_attr.t array;
  mutable outputs : Psm.output array;
  mutable components : (Assertion.t * Power_attr.t) list array;
  mutable edges : int;  (** Live transitions, [0 .. edges - 1]. *)
  src : int array;
  guard : int array;
  dst : int array;
  mutable initial : int list;  (** Slots, in S₀ order. *)
  total : int array;  (** Input id → slot, -1 for an id the input lacks. *)
  mutable merged : bool;  (** Some {!merge} has run. *)
}

val of_psm : Psm.t -> t
(** O(S + E). The transitions are the input's, so none repeats. *)

val merge : t -> drop_links:bool -> Psm.cluster list -> unit
(** Replace each cluster's members (slots, in merge order) by one state
    (output [Const new_attr.mu]) and reorder the slots canonically, in the cluster
    order {!Psm.merge_clusters} takes. With [drop_links], the transition
    from each member to the next one in [members] is removed (the
    [`Drop] of simplify); every other transition is redirected
    (duplicates are not collapsed here: {!to_psm} does that). O(S + E),
    plus an O(S log S) sort when the merged states do not already sit at
    their canonical places. *)

val to_psm : t -> Psm.t * (int -> int)
(** The machine and the input-id → final-id map, composed over every
    {!merge} of every stage run on the table. Without any {!merge} this
    is the input itself and the identity. *)
