(** Mergeability of power states (paper Sec. IV-A).

    Two states are mergeable when their power attributes are statistically
    indistinguishable, decided by three cases on the sample sizes:

    - {b Case 1} — nᵢ = nⱼ = 1 (two next-pattern states): mergeable when
      |μᵢ − μⱼ| < ε, with ε the designer tolerance. Here ε is expressed
      {e relative} to the larger mean, so one configuration works across
      IPs with different absolute power scales.
    - {b Case 2} — nᵢ > 1 and nⱼ > 1 (two until-pattern states): Welch's
      unequal-variances t-test; mergeable when equality of means is not
      rejected at significance [alpha].
    - {b Case 3} — nᵢ > 1, nⱼ = 1: one-sample t-test of the single
      observation against the larger population.

    [min_n_for_test]: below this population size the t-test is so weak
    that everything merges; such small states fall back to the Case-1 ε
    criterion on their means.

    [practical_equivalence]: with very large n the t-test detects — and
    rejects on — mean differences far too small to matter for power
    estimation, fragmenting the PSM. When set (the default), states whose
    means already satisfy the Case-1 ε criterion merge regardless of the
    test verdict: statistical significance is overridden by designer-
    declared practical equivalence. The pure-t-test behaviour (the paper's
    letter) is kept as an ablation configuration. *)

type config = {
  epsilon : float;  (** Relative tolerance, default 0.15. *)
  alpha : float;  (** Significance level, default 0.005. *)
  min_n_for_test : int;  (** Default 4. *)
  practical_equivalence : bool;  (** Default true. *)
}

val default : config

type case = Case1_next_next | Case2_until_until | Case3_until_next

val case_of : Power_attr.t -> Power_attr.t -> case

val mergeable : config -> Power_attr.t -> Power_attr.t -> bool
(** Raises [Invalid_argument] when [epsilon <= 0] or [alpha] is outside
    (0, 1), whichever case decides. Under [practical_equivalence] the ε
    criterion is evaluated first and the t-test only when it fails; the
    verdict is the same in either order. The t-test verdicts come from
    {!Psm_stats.Ttest.welch_equal_means} and
    {!Psm_stats.Ttest.one_sample_equal_means}: |t| is screened against
    cached critical values and a p-value is computed only near the
    [alpha] boundary, with the verdict of
    [Ttest.equal_means ~alpha (Ttest.welch …)] (or [one_sample]). *)
