(** Power State Machines (paper Def. 3).

    A PSM here is the 7-tuple ⟨I, O, S, S₀, E, λ, ω⟩ specialized to the
    mining flow: the input alphabet I is the set of interned propositions
    (complete truth rows over the atomic vocabulary), enabling functions E
    are single propositions guarding transitions, states S carry a temporal
    assertion and power attributes, and the output function ω is either a
    constant (the state's μ) or — after the data-dependent-state
    optimization — an affine function of the input Hamming distance.

    One [Psm.t] value can hold several machines (a set of chains after
    generation; a possibly-connected graph after [join]); S₀ lists the
    initial state of every constituent machine, with multiplicity — the
    HMM's π vector is derived from it. *)

type output =
  | Const of float
  | Affine of { slope : float; intercept : float }
      (** Power = slope × (Hamming distance of consecutive PI values) +
          intercept. *)

type state = {
  id : int;
  assertion : Assertion.t;
  attr : Power_attr.t;
  output : output;
  components : (Assertion.t * Power_attr.t) list;
      (** Provenance for the HMM's B matrix: the assertion/attribute pairs
          this state absorbed. A freshly generated or sequentially
          simplified state is a single component; a [join]ed state lists
          one component per merged member (multiplicity preserved). *)
}

type transition = { src : int; guard : int; dst : int }
(** Enabled when proposition [guard] holds. *)

type t

val empty : Psm_mining.Prop_trace.Table.t -> t

val prop_table : t -> Psm_mining.Prop_trace.Table.t

(** {1 Construction} *)

val add_state : t -> Assertion.t -> Power_attr.t -> t * int
(** The new state's output is [Const attr.mu] (createPowerState). *)

val add_state_full :
  t ->
  Assertion.t ->
  Power_attr.t ->
  output:output ->
  components:(Assertion.t * Power_attr.t) list ->
  t * int
(** Full-control constructor used when reloading persisted models. *)

val set_output : t -> int -> output -> t

val add_transition : t -> src:int -> guard:int -> dst:int -> t
(** Duplicate transitions (same triple) are kept once. Raises
    [Invalid_argument] on unknown state ids. *)

val add_initial : t -> int -> t
(** Appends to S₀ (multiplicity preserved: one entry per training trace
    that starts in this state). *)

val of_states :
  Psm_mining.Prop_trace.Table.t ->
  state array ->
  transitions:transition list ->
  initial:int list ->
  t
(** A whole machine in one step: [states.(i)] becomes state [i] and
    must carry id [i]; duplicate transitions are kept once; [initial]
    keeps its order and multiplicity. Raises [Invalid_argument] on a
    state out of place or an endpoint or initial entry that names no
    state. O(S log S + E log E). *)

(** {1 Observation} *)

val state : t -> int -> state
(** Raises [Not_found]. *)

val states : t -> state list
(** In id order. *)

val transitions : t -> transition list
val initial : t -> int list

val state_count : t -> int
val transition_count : t -> int

val id_bound : t -> int
(** One past the largest id ever allocated: every state id lies in
    [\[0, id_bound t)], so id-indexed arrays of this length cover the
    machine even when its ids are sparse (after {!merge_clusters} or
    {!union}). [state_count t] for a machine from {!of_states}. *)

val successors : t -> int -> transition list
(** Outgoing transitions of a state, ordered by [(guard, dst)] — the
    order of {!transitions} restricted to [src = id]. A range read of
    the ordered transition set: O(log E + out-degree). [[]] for a sink
    or an unknown id. *)

val machine_count : t -> int
(** Number of weakly-connected components — the number of constituent
    PSMs. *)

val eval_output : output -> hamming:float -> float

(** {1 Whole-set operations} *)

val union : t list -> t
(** Disjoint union (states renumbered). All constituents must share the
    same proposition table (physical equality). *)

type cluster = {
  members : int list;
      (** ≥ 2 distinct existing state ids ({!Chain_table.merge}: slots),
          in merge order. *)
  new_assertion : Assertion.t;
  new_attr : Power_attr.t;
  new_components : (Assertion.t * Power_attr.t) list;
}

val merge_clusters :
  t -> internal_edges:[ `Drop | `Self_loop ] -> cluster list -> t * (int * int) list
(** Also returns the (member id → replacement id) mapping.
    The merge surgery on a whole machine, which {!Simplify} and {!Join}
    do on flat tables instead ({!Chain_table}); the test oracle applies it
    after every pass. Each cluster's members are replaced by one fresh state carrying the given assertion
    and attributes (output = [Const new_attr.mu]); every transition
    endpoint and initial-state entry is redirected to the replacement
    (initial multiplicity preserved). Under [`Drop] (simplify), a
    transition from a member to the next one in [members] order is
    dropped: the sequential assertion absorbs it. Every other transition
    that ends up connecting a merged state to itself — under [`Drop],
    say, the edge closing a ring of members back to its head — is kept as
    a self-loop, as all of them are under [`Self_loop] (join). Duplicate
    transitions collapse. Clusters must be disjoint. *)

val pp : Format.formatter -> t -> unit
