(** The [simplify] procedure (paper Sec. IV, Fig. 6a): within each PSM,
    iteratively merge maximal runs of *adjacent* mergeable states into
    single states carrying the sequential assertion {pᵢ; pᵢ₊₁; …}.

    Adjacency means a transition s → t where s is t's only predecessor and
    t is s's only successor (always true inside the chains produced by
    {!Generator}; stated generally so simplify is safe on any PSM set).
    The chain's internal transitions are absorbed; the new state connects
    to the predecessor of the first and the successor of the last member.

    The passes run over flat tables in chain order ({!Chain_table}): a
    pass keeps its degree, chain-link and membership tables in arrays,
    joins each run's interval lists once, when the run closes, and
    redirects the transitions in place, so it is linear in states,
    transitions and intervals. {!simplify_table} runs the passes on a
    table in place, so a caller can follow them with {!Join.join_table}
    on the same table; {!simplify_traced} builds the {!Psm.t} once,
    after the last pass, in O((S + E) log (S + E)), and returns its
    input when nothing merges.

    Runs at most {!max_simplify_passes} greedy passes rather than a full
    fixpoint: a later pass can reach one commit further *backwards* per
    pass (a merged run's widened attributes may newly absorb the state
    committed just before it), so an unbounded fixpoint would need the
    whole chain live to replay online. Bounding the pass count lets the
    streaming trainer ({!Psm_flow.Stream_train}) replicate simplify
    exactly with a static cascade of one open run per pass, in O(model)
    memory. Real machines converge in 2–3 passes, where the bound is
    indistinguishable from the fixpoint. *)

val max_simplify_passes : int
(** 4. *)

val simplify_table : ?config:Merge.config -> Chain_table.t -> unit
(** Run at most {!max_simplify_passes} passes on the table in place
    (one ["combine.simplify"] span; the ["combine.simplify_merged"]
    counter gains the states it removed). *)

val simplify : ?config:Merge.config -> Psm.t -> Psm.t

val simplify_traced : ?config:Merge.config -> Psm.t -> Psm.t * (int -> int)
(** Also returns the total (original state id → final state id) mapping
    across all merge passes, used to project training-trace statistics
    onto the simplified machine. It is {!Chain_table.of_psm}, then
    {!simplify_table}, then {!Chain_table.to_psm}. *)
