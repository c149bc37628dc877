(** Special functions needed by the Student-t distribution.

    Implementations follow the classical Lanczos / continued-fraction
    formulations (Numerical Recipes style) and are accurate to well beyond
    the needs of a significance test (absolute error < 1e-10 over the ranges
    exercised here). *)

val log_gamma : float -> float
(** [log_gamma x] is ln Γ(x) for [x > 0]. *)

val beta : float -> float -> float
(** [beta a b] is the Euler beta function B(a, b). *)

val regularized_incomplete_beta : a:float -> b:float -> x:float -> float
(** [regularized_incomplete_beta ~a ~b ~x] is I_x(a, b) for [0 <= x <= 1],
    [a > 0], [b > 0]. The Student-t CDF is expressed through this. *)

val regularized_gamma_q : a:float -> x:float -> float
(** [regularized_gamma_q ~a ~x] is Q(a, x) = Γ(a, x) / Γ(a) for [a > 0]
    and [x >= 0] ([x = infinity] gives [0.]). The normal tail is
    expressed through it: P(|Z| >= z) = Q(1/2, z²/2). *)
