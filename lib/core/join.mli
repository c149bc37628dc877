(** The [join] procedure (paper Sec. IV, Fig. 6b): merge mergeable states
    regardless of adjacency, across all PSMs of the set, producing states
    that carry alternative assertions {pᵢ ‖ pⱼ ‖ …} and inherit every
    predecessor and successor transition of their members.

    Clustering is greedy in state-id order: each state joins the first
    existing cluster whose accumulated attributes it is mergeable with,
    so a pass makes O(S·C) mergeability tests instead of the all-pairs
    search (C is the number of clusters the pass opens, which tracks
    the distinct power modes and is small). A cluster folds its ⟨μ, σ, n⟩
    with {!Power_attr.merge_stats} and joins its members' interval lists
    once, when the pass ends, so the interval bookkeeping is linear in
    the intervals. The passes run over {!Chain_table}'s flat tables:
    {!join_table} runs them in place (after {!Simplify.simplify_table}
    on the same table, in {!Psm_flow.Flow.train}), and {!join_traced}
    builds the {!Psm.t} once, after the last pass, in
    O((S + E) log (S + E)). Transitions between members of one cluster
    become self-loops. The procedure iterates until no two clusters can
    merge.

    When a cluster absorbs states with identical assertions (and matching
    guards), the result is a non-deterministic PSM — resolved during
    simulation by the HMM (paper Sec. V). *)

val join_table : ?config:Merge.config -> Chain_table.t -> unit
(** Run the passes on the table in place until no two clusters merge
    (one ["combine.join"] span; the ["combine.join_merged"] counter
    gains the states it removed). *)

val join : ?config:Merge.config -> Psm.t -> Psm.t

val join_traced : ?config:Merge.config -> Psm.t -> Psm.t * (int -> int)
(** Also returns the total (state id → final state id) mapping across all
    merge passes. It is {!Chain_table.of_psm}, then {!join_table}, then
    {!Chain_table.to_psm}. *)
