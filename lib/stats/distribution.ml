(* [df] must be positive or infinite; NaN is refused with the rest. At
   [df = infinity] the Student-t is the standard normal, whose two-sided
   tail is Q(1/2, t²/2): the beta form below would read x = 1 there. *)
let check_df name df =
  if not (df > 0.) then invalid_arg ("Distribution." ^ name ^ ": df > 0 required")

let normal_two_sided t = Special.regularized_gamma_q ~a:0.5 ~x:(0.5 *. t *. t)

let student_t_cdf ~df t =
  check_df "student_t_cdf" df;
  (* Standard identity: P(T <= t) in terms of the regularized incomplete
     beta function I_x(df/2, 1/2) with x = df / (df + t^2). *)
  let tail =
    if df = infinity then normal_two_sided t
    else
      let x = df /. (df +. (t *. t)) in
      Special.regularized_incomplete_beta ~a:(df /. 2.) ~b:0.5 ~x
  in
  if t >= 0. then 1. -. (0.5 *. tail) else 0.5 *. tail

let student_t_sf_two_sided ~df t =
  check_df "student_t_sf_two_sided" df;
  if df = infinity then normal_two_sided t
  else
    let x = df /. (df +. (t *. t)) in
    Special.regularized_incomplete_beta ~a:(df /. 2.) ~b:0.5 ~x

(* Abramowitz & Stegun 7.1.26 rational approximation of erf, |err| < 1.5e-7,
   extended to full accuracy needs via the complementary symmetry. *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = abs_float x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let y =
    1.
    -. ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
         -. 0.284496736)
        *. t
       +. 0.254829592)
       *. t
       *. exp (-.x *. x)
  in
  sign *. y

let normal_cdf ?(mu = 0.) ?(sigma = 1.) x =
  if sigma <= 0. then invalid_arg "Distribution.normal_cdf: sigma > 0 required";
  0.5 *. (1. +. erf ((x -. mu) /. (sigma *. sqrt 2.)))
