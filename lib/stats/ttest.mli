(** Significance tests used to decide mergeability of power states
    (paper Sec. IV-A).

    All tests work from summary statistics ⟨μ, σ, n⟩ — the power attributes
    stored on PSM states — so no raw samples need to be retained. *)

type result = {
  t_statistic : float;
  degrees_of_freedom : float;
  p_value : float;  (** Two-sided. *)
}

val welch : mean1:float -> stddev1:float -> n1:int -> mean2:float -> stddev2:float -> n2:int -> result
(** Welch's unequal-variances two-sample t-test (paper Case 2: two
    until-pattern states). Degrees of freedom follow the Welch–Satterthwaite
    approximation. Requires [n1 >= 2] and [n2 >= 2].

    When both sample variances are zero the test degenerates: the p-value is
    [1.] if the means are equal and [0.] otherwise. When the larger
    stddev lies outside [2^-200, 2^200], where σ⁴ would overflow or
    underflow, both are scaled by one power of two before the formula
    runs, so df stays finite and t exact; inside that range the result is
    the plain formula's. A NaN or infinite stddev gives NaN statistic, df
    and p-value (never {!equal_means}). *)

val one_sample : mean:float -> stddev:float -> n:int -> value:float -> result
(** One-sample t-test of a single observation [value] against a population
    summarized by ⟨mean, stddev, n⟩ (paper Case 3: merging a next-pattern
    state, n = 1, into an until-pattern state). Requires [n >= 2].

    The statistic is the prediction-flavoured form
    t = (value − mean) / (s·√(1 + 1/n)), which asks whether the single
    sample is plausible as one more draw from the population. *)

val equal_means : ?alpha:float -> result -> bool
(** [equal_means ~alpha r] is [true] when the test fails to reject equality
    of means at significance level [alpha] (default [0.05]), i.e. when
    [r.p_value >= alpha]. This is the paper's "mergeable" verdict. *)

(** {2 Screened verdicts}

    The verdicts {!Psm_core.Merge} asks for, without a p-value for most
    pairs. Each compares |t| against a per-[alpha] table of two-sided
    critical values c(g) on a fixed grid of degrees of freedom
    (g = 1 … 64, then steps of 9/8 up to 2^20; {!grid_points} points).
    The two-sided tail falls as df grows, so for df in [g_k, g_k+1) the
    verdict is "reject" when |t| > c(g_k)·(1 + 10⁻⁴) and "equal" when
    |t| < c(g_k+1)·(1 − 10⁻⁴) (c(g_k) itself when df is the grid
    point); between the two bounds, for df outside [1, 2^20) and for
    [alpha] outside [10⁻¹², 0.5], the exact p-value decides. The margin
    is far wider than the table's bisection width and the p-value's
    rounding over the grid, so the screen gives the verdict of the
    p-value: [welch_equal_means ~alpha …] is
    [equal_means ~alpha (welch …)] and likewise for the one-sample test.

    Table entries are filled on first use, each by bisection on
    {!Distribution.student_t_sf_two_sided}, and shared by every domain:
    an entry is a function of [alpha] and its grid point only, so
    concurrent fills agree. *)

val welch_equal_means :
  alpha:float -> mean1:float -> stddev1:float -> n1:int -> mean2:float -> stddev2:float -> n2:int -> bool
(** [equal_means ~alpha (welch …)], screened. Raises as {!welch} and
    {!equal_means} do. *)

val one_sample_equal_means : alpha:float -> mean:float -> stddev:float -> n:int -> value:float -> bool
(** [equal_means ~alpha (one_sample …)], screened. *)

val grid_points : int
(** The number of grid points (146). *)

val grid_point : int -> float
(** [grid_point k] is g_k, for [0 <= k < grid_points]: k + 1 up to 64,
    then 64·(9/8)^(k − 63). *)

val critical_value : alpha:float -> int -> float
(** [critical_value ~alpha k] is the table's c(g_k): the |t| at which
    the two-sided p-value at df = g_k crosses [alpha], to 10⁻¹²
    relative. Fills the entry when it is not yet filled. *)
