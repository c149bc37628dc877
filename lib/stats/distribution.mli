(** Cumulative distribution functions used by the significance tests. *)

val student_t_cdf : df:float -> float -> float
(** [student_t_cdf ~df t] is P(T <= t) for a Student-t variable with [df]
    degrees of freedom ([df > 0]; fractional degrees of freedom, as produced
    by the Welch–Satterthwaite formula, are supported). [df = infinity]
    is the standard normal limit; a NaN [df] raises [Invalid_argument]
    like a non-positive one. *)

val student_t_sf_two_sided : df:float -> float -> float
(** [student_t_sf_two_sided ~df t] is the two-sided p-value
    P(|T| >= |t|), with [df] as in {!student_t_cdf}: at [df = infinity]
    it is the normal tail P(|Z| >= |t|). *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float
(** Standard parameters default to [mu = 0.], [sigma = 1.]. *)
