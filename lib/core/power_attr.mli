(** Power attributes of a PSM state: the triplet ⟨μ, σ, n⟩ plus the source
    intervals it was computed from (the paper's ⟨p, start, stop⟩ bookkeeping,
    generalized to interval *lists* after [simplify]/[join] and tagged with
    the training trace each interval came from). *)

type interval = { trace : int; start : int; stop : int }
(** Inclusive instants [start..stop] of training trace number [trace]. *)

type t = {
  mu : float;  (** Mean energy per instant. *)
  sigma : float;  (** Sample standard deviation. *)
  n : int;  (** Number of instants. *)
  intervals : interval list;  (** In merge order. *)
}

val of_interval : Psm_trace.Power_trace.t -> trace:int -> start:int -> stop:int -> t
(** [getPowerAttributes] of the paper's Fig. 4. *)

val merge : t -> t -> t
(** Combined attributes over the union of the source intervals. μ and σ
    are produced by the exact parallel-variance (Chan) formula, which
    yields the same values as rescanning the reference power traces over
    [intervals a @ intervals b]. Costs O(|intervals a|): the left list
    is copied, so folding [merge] over k members is quadratic in k —
    accumulate with {!merge_stats} and {!concat_rev} instead. *)

val merge_stats : t -> t -> t
(** The ⟨μ, σ, n⟩ of {!merge}, bit for bit (the same float operations),
    with [intervals = []]. O(1): the accumulator of a growing cluster,
    whose interval lists are kept aside and joined once by
    {!concat_rev}. *)

val concat_rev : interval list list -> interval list
(** [concat_rev [lₖ; …; l₂; l₁]] is [l₁ @ l₂ @ … @ lₖ]: member interval
    lists collected newest first, concatenated in merge order in
    O(total length). *)

val recompute : Psm_trace.Power_trace.t array -> t -> t
(** Rescan the reference power traces (indexed by [interval.trace]) over
    [t.intervals] — the paper's literal definition of merged attributes.
    Used by tests to confirm {!merge} is exact. *)

val relative_sigma : t -> float
(** σ/μ, or σ itself when μ = 0 — the "too high standard deviation"
    criterion of the data-dependent-state optimization. *)

val pp : Format.formatter -> t -> unit
