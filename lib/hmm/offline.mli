(** Offline power estimation by Viterbi decoding.

    The paper's simulator is causal: filtering picks the next state from
    past observations only, because the PSM runs live alongside the IP.
    When the whole functional trace is already recorded (post-simulation
    power analysis — exactly how PrimeTime PX is used in practice), the
    maximum-likelihood *sequence* of hidden states can be decoded instead:
    classic Viterbi over λ = ⟨A, B, π⟩ with the interned propositions as
    observations. Instants whose proposition was never seen in training
    contribute an uninformative emission factor.

    This is an extension beyond the paper; the bench compares it against
    the online simulator. *)

val viterbi : Hmm.t -> int option array -> int array
(** [viterbi hmm observations] — the most likely state-row sequence for a
    per-instant (optional) proposition sequence. Log-domain max-product
    with a small smoothing floor so one unseen transition cannot zero an
    entire path. A dense m × m scan per instant; equal-scoring
    predecessors resolve to the lowest state row. *)

val decode : Hmm.t -> Psm_trace.Functional_trace.t -> int array
(** Classify every instant of the trace
    ({!Psm_mining.Sample_tracker.iter_runs}) and Viterbi-decode; returns
    PSM state ids per instant. *)

val estimate : Hmm.t -> Psm_trace.Functional_trace.t -> float array
(** Per-instant power estimate from the decoded state sequence (regression
    outputs use the trace's input Hamming distances, as online). *)

val evaluate :
  Hmm.t ->
  Psm_trace.Functional_trace.t ->
  reference:Psm_trace.Power_trace.t ->
  Accuracy.report
