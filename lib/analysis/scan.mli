(** Shared single-pass trace/model statistics for the analyzer rules.

    Built once per {!Rule.context}; rules read it instead of re-deriving
    per-state trace data. All fields are immutable after {!create}.
    Out-edges are not part of the scan: rules call [Psm.successors],
    which costs O(log E + out-degree).

    Field consumers: [activations] — stall; [recomputed_attr],
    [claims], [total_n], [instants_total] — conservation. *)

type t

val create : ?powers:Psm_trace.Power_trace.t array -> Psm_core.Psm.t -> t

val activations : t -> int -> (int * (int * int) list) list
(** Per-trace maximal activation runs of a state's intervals: sorted by
    trace, runs sorted and coalesced (abutting or overlapping intervals
    merge). *)

val recomputed_attr : t -> int -> Psm_core.Power_attr.t option
(** The Welford rescan of the state's intervals against the power
    traces — bit-identical to [Power_attr.recompute] (same interval
    order). [None] when the state has no intervals, any interval is out
    of bounds, or no power traces were given. *)

val claims : t -> trace:int -> (int * int * int) list
(** Sorted [(start, stop, state id)] in-bounds claims on one power
    trace, all states pooled — the conservation coverage walk. *)

val total_n : t -> int
(** Σ over states of [attr.n]. *)

val instants_total : t -> int
(** Σ of the power trace lengths ([0] without power traces). *)
