(** Data-dependent-state optimization (paper Sec. IV, final step).

    States whose power standard deviation is "too high" relative to their
    mean are likely data-dependent: a constant μ misrepresents them. For
    such states, the per-instant power over the state's source intervals is
    regressed against the Hamming distance between consecutive primary-
    input values of the corresponding functional traces; when the linear
    correlation is strong (|Pearson r| ≥ [correlation_threshold] — the
    paper's necessary condition for an accurate regression), the state's
    output function is replaced by the fitted affine function. *)

type config = {
  sigma_threshold : float;
      (** Relative σ/μ above which a state is a candidate; default 0.05. *)
  correlation_threshold : float;  (** Default 0.7. *)
}

val default : config

type report = {
  state_id : int;
  relative_sigma : float;
  correlation : float;
  upgraded : bool;
}

val optimize :
  ?config:config ->
  traces:Psm_trace.Functional_trace.t array ->
  powers:Psm_trace.Power_trace.t array ->
  Psm.t ->
  Psm.t * report list
(** [traces] and [powers] are the training pairs indexed by the trace tags
    recorded in the states' power-attribute intervals. Returns the
    optimized PSM set and a per-candidate report. The Hamming series
    is computed at run starts only (every other instant is 0) and a
    candidate's samples go into two preallocated float arrays: linear in
    the training instants. *)
