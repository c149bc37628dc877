(* Tests for Psm_stats: descriptive statistics, special functions,
   distributions, t-tests, regression and the PRNG. *)

module D = Psm_stats.Descriptive
module Special = Psm_stats.Special
module Dist = Psm_stats.Distribution
module Ttest = Psm_stats.Ttest
module Reg = Psm_stats.Regression
module Prng = Psm_stats.Prng

let close ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* ---------- descriptive ---------- *)

let test_mean_variance () =
  let a = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  close "mean" 5. (D.mean a);
  (* Known dataset: population variance 4, sample variance 32/7. *)
  close "variance" (32. /. 7.) (D.variance a);
  close "stddev" (sqrt (32. /. 7.)) (D.stddev a)

let test_slices () =
  let a = [| 100.; 1.; 2.; 3.; 100. |] in
  close "mean_slice" 2. (D.mean_slice a ~start:1 ~stop:3);
  close "stddev_slice" 1. (D.stddev_slice a ~start:1 ~stop:3)

let test_min_max () =
  let lo, hi = D.min_max [| 3.; -1.; 7.; 0. |] in
  close "min" (-1.) lo;
  close "max" 7. hi

let test_online_matches_two_pass () =
  let data = Array.init 1000 (fun i -> sin (float_of_int i) *. 10.) in
  let online = D.Online.create () in
  Array.iter (D.Online.add online) data;
  close ~eps:1e-9 "mean" (D.mean data) (D.Online.mean online);
  close ~eps:1e-9 "variance" (D.variance data) (D.Online.variance online)

let test_online_merge () =
  let a = Array.init 100 (fun i -> float_of_int i) in
  let b = Array.init 57 (fun i -> float_of_int (i * i)) in
  let oa = D.Online.create () and ob = D.Online.create () in
  Array.iter (D.Online.add oa) a;
  Array.iter (D.Online.add ob) b;
  let merged = D.Online.merge oa ob in
  let both = Array.append a b in
  close ~eps:1e-9 "merged mean" (D.mean both) (D.Online.mean merged);
  close ~eps:1e-9 "merged variance" (D.variance both) (D.Online.variance merged);
  Alcotest.(check int) "merged count" 157 (D.Online.count merged)

(* ---------- special functions ---------- *)

let test_log_gamma () =
  (* Γ(n) = (n-1)! *)
  close ~eps:1e-10 "gamma(5)" (log 24.) (Special.log_gamma 5.);
  close ~eps:1e-10 "gamma(1)" 0. (Special.log_gamma 1.);
  close ~eps:1e-10 "gamma(0.5)" (log (sqrt Float.pi)) (Special.log_gamma 0.5);
  (* recurrence Γ(x+1) = xΓ(x) *)
  close ~eps:1e-9 "recurrence" (Special.log_gamma 3.7)
    (Special.log_gamma 4.7 -. log 3.7)

let test_beta () =
  (* B(a,b) = Γ(a)Γ(b)/Γ(a+b); B(2,3) = 1/12. *)
  close ~eps:1e-10 "beta(2,3)" (1. /. 12.) (Special.beta 2. 3.)

let test_incomplete_beta () =
  (* I_x(1,1) = x. *)
  close ~eps:1e-9 "I_x(1,1)" 0.42 (Special.regularized_incomplete_beta ~a:1. ~b:1. ~x:0.42);
  (* I_x(2,2) = x^2 (3 - 2x). *)
  let x = 0.3 in
  close ~eps:1e-9 "I_x(2,2)" (x *. x *. (3. -. (2. *. x)))
    (Special.regularized_incomplete_beta ~a:2. ~b:2. ~x);
  (* symmetry: I_x(a,b) = 1 - I_(1-x)(b,a). *)
  close ~eps:1e-9 "symmetry"
    (1. -. Special.regularized_incomplete_beta ~a:5. ~b:3. ~x:0.6)
    (Special.regularized_incomplete_beta ~a:3. ~b:5. ~x:0.4)

(* ---------- distributions ---------- *)

let test_student_t_cdf () =
  (* Known quantiles: t with 1 df is Cauchy: CDF(1) = 0.75. *)
  close ~eps:1e-8 "cauchy" 0.75 (Dist.student_t_cdf ~df:1. 1.);
  close ~eps:1e-8 "symmetric" 0.5 (Dist.student_t_cdf ~df:7. 0.);
  (* Classical table value: t_{0.975, 10} = 2.228. *)
  close ~eps:2e-4 "97.5% df=10" 0.975 (Dist.student_t_cdf ~df:10. 2.228139);
  (* Large df approaches the normal distribution. *)
  close ~eps:1e-3 "normal limit" (Dist.normal_cdf 1.96)
    (Dist.student_t_cdf ~df:10000. 1.96)

let test_two_sided () =
  close ~eps:2e-4 "two-sided df=10" 0.05 (Dist.student_t_sf_two_sided ~df:10. 2.228139);
  close ~eps:1e-8 "two-sided symmetric" (Dist.student_t_sf_two_sided ~df:5. 1.3)
    (Dist.student_t_sf_two_sided ~df:5. (-1.3))

let test_normal_cdf () =
  close ~eps:1e-6 "median" 0.5 (Dist.normal_cdf 0.);
  close ~eps:1e-6 "sigma" 0.8413447 (Dist.normal_cdf 1.);
  close ~eps:1e-6 "mu/sigma params" 0.8413447 (Dist.normal_cdf ~mu:10. ~sigma:2. 12.)

(* ---------- t-tests ---------- *)

let test_welch_identical () =
  let r = Ttest.welch ~mean1:5. ~stddev1:1. ~n1:50 ~mean2:5. ~stddev2:1. ~n2:50 in
  close "t = 0" 0. r.Ttest.t_statistic;
  close "p = 1" 1. r.Ttest.p_value;
  Alcotest.(check bool) "mergeable" true (Ttest.equal_means r)

let test_welch_distinct () =
  let r = Ttest.welch ~mean1:5. ~stddev1:0.5 ~n1:100 ~mean2:9. ~stddev2:0.5 ~n2:100 in
  Alcotest.(check bool) "p tiny" true (r.Ttest.p_value < 1e-6);
  Alcotest.(check bool) "not mergeable" false (Ttest.equal_means r)

let test_welch_textbook () =
  (* Welch's 1947 example-style check against scipy.stats.ttest_ind
     (equal_var=False): a = mean 20.0, sd 2.0, n 12; b = mean 22.5,
     sd 3.2, n 18: se² = 4/12 + 10.24/18, t = -2.5/0.9499 = -2.632,
     Welch–Satterthwaite df ≈ 27.93. *)
  let r = Ttest.welch ~mean1:20. ~stddev1:2.0 ~n1:12 ~mean2:22.5 ~stddev2:3.2 ~n2:18 in
  close ~eps:1e-3 "t" (-2.632) r.Ttest.t_statistic;
  close ~eps:0.05 "df" 27.93 r.Ttest.degrees_of_freedom

let test_welch_symmetry () =
  let r1 = Ttest.welch ~mean1:3. ~stddev1:1. ~n1:30 ~mean2:4. ~stddev2:2. ~n2:40 in
  let r2 = Ttest.welch ~mean1:4. ~stddev1:2. ~n1:40 ~mean2:3. ~stddev2:1. ~n2:30 in
  close "t antisymmetric" (-.r1.Ttest.t_statistic) r2.Ttest.t_statistic;
  close "p symmetric" r1.Ttest.p_value r2.Ttest.p_value

let test_welch_degenerate () =
  let equal = Ttest.welch ~mean1:2. ~stddev1:0. ~n1:10 ~mean2:2. ~stddev2:0. ~n2:10 in
  close "degenerate equal p" 1. equal.Ttest.p_value;
  let diff = Ttest.welch ~mean1:2. ~stddev1:0. ~n1:10 ~mean2:3. ~stddev2:0. ~n2:10 in
  close "degenerate distinct p" 0. diff.Ttest.p_value

let test_one_sample () =
  (* A value far outside the population is rejected... *)
  let far = Ttest.one_sample ~mean:10. ~stddev:1. ~n:50 ~value:20. in
  Alcotest.(check bool) "far not mergeable" false (Ttest.equal_means far);
  (* ...one near the mean is not. *)
  let near = Ttest.one_sample ~mean:10. ~stddev:1. ~n:50 ~value:10.2 in
  Alcotest.(check bool) "near mergeable" true (Ttest.equal_means near)

let test_alpha_monotonicity () =
  let r = Ttest.welch ~mean1:5. ~stddev1:1. ~n1:20 ~mean2:5.8 ~stddev2:1. ~n2:20 in
  (* p ≈ 0.017: mergeable at alpha = 0.005, not at alpha = 0.05. *)
  Alcotest.(check bool) "strict alpha merges" true (Ttest.equal_means ~alpha:0.005 r);
  Alcotest.(check bool) "loose alpha rejects" false (Ttest.equal_means ~alpha:0.05 r)

(* ---------- non-finite and extreme inputs ---------- *)

let raises f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let close_rel ?(eps = 1e-9) name expected actual =
  if not (abs_float (actual -. expected) <= eps *. abs_float expected) then
    Alcotest.failf "%s: expected %h, got %h" name expected actual

let test_df_infinite_and_nan () =
  (* df = ∞ is the standard normal: z at 97.5 % is 1.959963984540054 and
     P(|Z| >= 3) = 0.00269979606326019. *)
  close ~eps:1e-14 "normal two-sided 5%" 0.05 (Dist.student_t_sf_two_sided ~df:infinity 1.959963984540054);
  close_rel ~eps:1e-12 "normal tail at 3" 0.00269979606326019
    (Dist.student_t_sf_two_sided ~df:infinity 3.);
  close "t = 0" 1. (Dist.student_t_sf_two_sided ~df:infinity 0.);
  close "t = -inf" 0. (Dist.student_t_sf_two_sided ~df:infinity neg_infinity);
  close ~eps:1e-14 "normal cdf" 0.975 (Dist.student_t_cdf ~df:infinity 1.959963984540054);
  close ~eps:1e-14 "normal cdf, lower tail" 0.025 (Dist.student_t_cdf ~df:infinity (-1.959963984540054));
  close ~eps:1e-6 "large df approaches it" (Dist.student_t_sf_two_sided ~df:infinity 2.5)
    (Dist.student_t_sf_two_sided ~df:1e6 2.5);
  close_rel ~eps:1e-12 "Q(1, x) = exp (-x)" (exp (-3.5)) (Special.regularized_gamma_q ~a:1. ~x:3.5);
  close_rel ~eps:1e-12 "Q(1, small x)" (exp (-0.25)) (Special.regularized_gamma_q ~a:1. ~x:0.25);
  Alcotest.(check bool) "NaN df refused (sf)" true
    (raises (fun () -> Dist.student_t_sf_two_sided ~df:nan 1.));
  Alcotest.(check bool) "NaN df refused (cdf)" true (raises (fun () -> Dist.student_t_cdf ~df:nan 1.));
  Alcotest.(check bool) "df -inf refused" true
    (raises (fun () -> Dist.student_t_sf_two_sided ~df:neg_infinity 1.))

let bits_equal name a b = Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_welch_extreme_scales () =
  (* σ = 1e200 made σ² overflow: df read NaN and the pair was "not
     mergeable" at t = 0. *)
  let big = Ttest.welch ~mean1:5. ~stddev1:1e200 ~n1:10 ~mean2:5. ~stddev2:1e200 ~n2:12 in
  let unit = Ttest.welch ~mean1:5. ~stddev1:1. ~n1:10 ~mean2:5. ~stddev2:1. ~n2:12 in
  close_rel "df is scale-free (huge)" unit.Ttest.degrees_of_freedom big.Ttest.degrees_of_freedom;
  close "p = 1 at t = 0" 1. big.Ttest.p_value;
  Alcotest.(check bool) "mergeable" true (Ttest.equal_means big);
  (* σ = 1e-100: se² squared underflowed to 0, df = 0/0. σ = 1e-200: σ²
     underflowed and the pair fell to the zero-variance comparison. *)
  List.iter
    (fun scale ->
      let scaled =
        Ttest.welch ~mean1:0. ~stddev1:scale ~n1:8 ~mean2:(3. *. scale) ~stddev2:(2. *. scale) ~n2:9
      in
      let plain = Ttest.welch ~mean1:0. ~stddev1:1. ~n1:8 ~mean2:3. ~stddev2:2. ~n2:9 in
      let name = Printf.sprintf "scale %g" scale in
      close_rel (name ^ " t") plain.Ttest.t_statistic scaled.Ttest.t_statistic;
      close_rel (name ^ " df") plain.Ttest.degrees_of_freedom scaled.Ttest.degrees_of_freedom;
      close_rel (name ^ " p") plain.Ttest.p_value scaled.Ttest.p_value)
    [ 1e-100; 1e-200; 1e-310; 1e100; 1e250 ];
  (* Inside [2^-200, 2^200] the formula runs on the inputs as given. *)
  let r = Ttest.welch ~mean1:1.25 ~stddev1:3.7 ~n1:15 ~mean2:0.5 ~stddev2:0.2 ~n2:40 in
  let v1 = 3.7 *. 3.7 and v2 = 0.2 *. 0.2 in
  let se2 = (v1 /. 15.) +. (v2 /. 40.) in
  bits_equal "plain t" ((1.25 -. 0.5) /. sqrt se2) r.Ttest.t_statistic;
  bits_equal "plain df"
    (se2 *. se2 /. ((v1 *. v1 /. (15. *. 15. *. 14.)) +. (v2 *. v2 /. (40. *. 40. *. 39.))))
    r.Ttest.degrees_of_freedom;
  (* A non-finite stddev has no test: NaN throughout, never mergeable. *)
  List.iter
    (fun sd ->
      let r = Ttest.welch ~mean1:1. ~stddev1:sd ~n1:5 ~mean2:1. ~stddev2:1. ~n2:5 in
      Alcotest.(check bool) "NaN df" true (Float.is_nan r.Ttest.degrees_of_freedom);
      Alcotest.(check bool) "NaN p" true (Float.is_nan r.Ttest.p_value);
      Alcotest.(check bool) "not mergeable" false (Ttest.equal_means r);
      Alcotest.(check bool) "screened: not mergeable" false
        (Ttest.welch_equal_means ~alpha:0.05 ~mean1:1. ~stddev1:sd ~n1:5 ~mean2:1. ~stddev2:1. ~n2:5))
    [ nan; infinity ]

(* ---------- screened verdicts ---------- *)

let alphas = [ 0.2; 0.05; 0.005; 1e-6 ]

let welch_agrees ~alpha ~mean1 ~stddev1 ~n1 ~mean2 ~stddev2 ~n2 =
  Ttest.welch_equal_means ~alpha ~mean1 ~stddev1 ~n1 ~mean2 ~stddev2 ~n2
  = Ttest.equal_means ~alpha (Ttest.welch ~mean1 ~stddev1 ~n1 ~mean2 ~stddev2 ~n2)

let one_sample_agrees ~alpha ~mean ~stddev ~n ~value =
  Ttest.one_sample_equal_means ~alpha ~mean ~stddev ~n ~value
  = Ttest.equal_means ~alpha (Ttest.one_sample ~mean ~stddev ~n ~value)

(* The grid points bracketing df: (k, Some (k + 1)), (last, None) above
   the grid, [] below it. *)
let bracket df =
  let rec go k =
    if k + 1 < Ttest.grid_points && Ttest.grid_point (k + 1) <= df then go (k + 1) else k
  in
  if df < 1. then []
  else
    let k = go 0 in
    if k + 1 < Ttest.grid_points then [ k; k + 1 ] else [ k ]

(* |t| targets around the critical values of the grid points bracketing
   df: on the screen's margin, just inside and outside it, and far. *)
let factors =
  [ 1.; 1. -. 1e-9; 1. +. 1e-9; 1. -. 1e-6; 1. +. 1e-6; 1. -. 1e-4; 1. +. 1e-4; 1. -. 2e-4;
    1. +. 2e-4; 1. -. 1e-3; 1. +. 1e-3; 0.5; 2. ]

let targets ~alpha df =
  List.concat_map
    (fun k ->
      let c = Ttest.critical_value ~alpha k in
      List.map (fun f -> c *. f) factors)
    (bracket df)

let test_screen_edges () =
  List.iter
    (fun alpha ->
      let fail fmt = Alcotest.failf ("alpha %g: " ^^ fmt) alpha in
      (* One-sample: df = n - 1 on grid points, between them, above. *)
      List.iter
        (fun n ->
          let se = sqrt (1. +. (1. /. float_of_int n)) in
          List.iter
            (fun t ->
              List.iter
                (fun value ->
                  if not (one_sample_agrees ~alpha ~mean:0. ~stddev:1. ~n ~value) then
                    fail "one-sample n %d value %h" n value)
                [ t *. se; -.t *. se ])
            (targets ~alpha (float_of_int (n - 1)) @ [ 0. ]))
        [ 2; 3; 10; 64; 65; 66; 73; 82; 101; 5000; 1_000_000; 2_000_000 ];
      (* Welch: equal sides give df = 2 (n - 1); unequal ones fractional
         df between grid points. *)
      List.iter
        (fun (stddev1, n1, stddev2, n2) ->
          let r = Ttest.welch ~mean1:0. ~stddev1 ~n1 ~mean2:0. ~stddev2 ~n2 in
          let se =
            sqrt
              ((stddev1 *. stddev1 /. float_of_int n1) +. (stddev2 *. stddev2 /. float_of_int n2))
          in
          List.iter
            (fun t ->
              if not (welch_agrees ~alpha ~mean1:0. ~stddev1 ~n1 ~mean2:(t *. se) ~stddev2 ~n2)
              then fail "welch (%g, %d) (%g, %d) t %h" stddev1 n1 stddev2 n2 t)
            (targets ~alpha r.Ttest.degrees_of_freedom))
        [ (1., 2, 1., 2); (1., 33, 1., 33); (1., 37, 1., 37); (2., 5000, 2., 5000);
          (1., 5, 3., 40); (0.3, 700, 5., 9); (1., 2, 1e-3, 100_000); (4., 900_000, 4., 900_000) ];
      (* Zero variance: the degenerate comparison, screened. *)
      List.iter
        (fun (mean2, expected) ->
          Alcotest.(check bool) "zero variance welch" expected
            (Ttest.welch_equal_means ~alpha ~mean1:2. ~stddev1:0. ~n1:10 ~mean2 ~stddev2:0. ~n2:7);
          Alcotest.(check bool) "zero variance one-sample" expected
            (Ttest.one_sample_equal_means ~alpha ~mean:2. ~stddev:0. ~n:10 ~value:mean2))
        [ (2., true); (2.5, false) ])
    alphas;
  Alcotest.(check bool) "bad alpha raises" true
    (raises (fun () ->
         Ttest.welch_equal_means ~alpha:1. ~mean1:0. ~stddev1:1. ~n1:5 ~mean2:0. ~stddev2:1. ~n2:5))

(* Random ⟨μ, σ, n⟩ pairs; half of them have their mean gap placed at a
   factor of a bracketing critical value, so the margins are hit. *)
let gen_screen_case =
  QCheck.Gen.(
    let* alpha = oneofl alphas in
    let* log_n1 = float_range 0.7 13. and* log_n2 = float_range 0.7 13. in
    let* stddev1 = float_range 0. 4. and* stddev2 = float_range 0.01 4. in
    let* near = bool and* sign = oneofl [ 1.; -1. ] in
    let* pick = int_bound 1000 and* f = oneof [ oneofl factors; float_range 0.5 2. ] in
    let* gap = float_range 0. 3. in
    return (alpha, int_of_float (exp log_n1) + 1, int_of_float (exp log_n2) + 1, stddev1, stddev2, near, sign, pick, f, gap))

let screen_property (alpha, n1, n2, stddev1, stddev2, near, sign, pick, f, gap) =
  let n1 = max 2 n1 and n2 = max 2 n2 in
  let placed df se =
    match bracket df with
    | [] -> gap
    | ks -> sign *. se *. f *. Ttest.critical_value ~alpha (List.nth ks (pick mod List.length ks))
  in
  let r = Ttest.welch ~mean1:0. ~stddev1 ~n1 ~mean2:0. ~stddev2 ~n2 in
  let se =
    sqrt ((stddev1 *. stddev1 /. float_of_int n1) +. (stddev2 *. stddev2 /. float_of_int n2))
  in
  let mean2 = if near then placed r.Ttest.degrees_of_freedom se else gap in
  let one_se = stddev2 *. sqrt (1. +. (1. /. float_of_int n2)) in
  let value = if near then placed (float_of_int (n2 - 1)) one_se else gap in
  welch_agrees ~alpha ~mean1:0. ~stddev1 ~n1 ~mean2 ~stddev2 ~n2
  && one_sample_agrees ~alpha ~mean:0. ~stddev:stddev2 ~n:n2 ~value

let test_screen_random =
  QCheck.Test.make ~count:2000 ~name:"screened verdict = p-value verdict"
    (QCheck.make gen_screen_case) screen_property

(* What the screen rests on: at fixed |t| the two-sided tail does not
   grow with df. *)
let test_tail_monotone_in_df =
  QCheck.Test.make ~count:500 ~name:"two-sided tail falls as df grows"
    QCheck.(triple (float_range 0.01 40.) (float_range 0. 14.) (float_range 0. 3.))
    (fun (t, log_df, step) ->
      let df = exp log_df in
      let p1 = Dist.student_t_sf_two_sided ~df t
      and p2 = Dist.student_t_sf_two_sided ~df:(df *. (1. +. step) +. 0.01) t in
      p2 <= p1 *. (1. +. 1e-9))

(* Every domain fills the tables of one alpha that no other test uses,
   so they start cold; the models must be the sequential ones. *)
let test_screen_concurrent_training () =
  let config =
    { Psm_flow.Flow.default with
      Psm_flow.Flow.merge = { Psm_core.Merge.default with Psm_core.Merge.alpha = 0.0043 } }
  in
  let train (name, make) =
    let suite = Psm_ips.Workloads.suite ~parts:2 ~total_length:4000 ~long:false name in
    Psm_flow.Persist.save (Psm_flow.Flow.train_on_ip ~config (make ()) suite)
  in
  let ips =
    [ ("RAM", Psm_ips.Ram.create);
      ("MultSum", Psm_ips.Multsum.create);
      ("AES", Psm_ips.Aes.create);
      ("Camellia", Psm_ips.Camellia.create) ]
  in
  let concurrent = List.map Domain.join (List.map (fun ip -> Domain.spawn (fun () -> train ip)) ips) in
  let sequential = List.map train ips in
  List.iter2
    (fun (name, _) (c, s) -> Alcotest.(check bool) (name ^ " model") true (String.equal c s))
    ips (List.combine concurrent sequential)

(* ---------- regression ---------- *)

let test_fit_exact_line () =
  let x = Array.init 50 (fun i -> float_of_int i) in
  let y = Array.map (fun v -> (3.5 *. v) -. 7.) x in
  let fit = Reg.fit ~x ~y in
  close ~eps:1e-9 "slope" 3.5 fit.Reg.slope;
  close ~eps:1e-7 "intercept" (-7.) fit.Reg.intercept;
  close ~eps:1e-9 "r" 1. fit.Reg.r;
  close ~eps:1e-9 "residuals" 0. (Reg.residual_stddev fit ~x ~y)

let test_fit_negative_correlation () =
  let x = Array.init 20 (fun i -> float_of_int i) in
  let y = Array.map (fun v -> 100. -. (2. *. v)) x in
  let fit = Reg.fit ~x ~y in
  close ~eps:1e-9 "slope" (-2.) fit.Reg.slope;
  close ~eps:1e-9 "r" (-1.) fit.Reg.r

let test_pearson_independent () =
  (* Orthogonal patterns have zero correlation. *)
  let x = [| 1.; -1.; 1.; -1. |] and y = [| 1.; 1.; -1.; -1. |] in
  close ~eps:1e-12 "r = 0" 0. (Reg.pearson x y)

let test_fit_constant_x () =
  let x = Array.make 10 4. and y = Array.init 10 float_of_int in
  let fit = Reg.fit ~x ~y in
  close "slope 0" 0. fit.Reg.slope;
  close "intercept = mean y" 4.5 fit.Reg.intercept

(* ---------- PRNG ---------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_bounds () =
  let rng = Prng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Prng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.5)
  done

let test_prng_bits_width () =
  let rng = Prng.create ~seed:9L in
  List.iter
    (fun w ->
      Alcotest.(check int) "width" w (Psm_bits.Bits.width (Prng.bits rng ~width:w)))
    [ 1; 31; 32; 64; 65; 128; 200 ]

let test_prng_bits_balanced () =
  (* A 128-bit draw averages ~64 set bits; over 200 draws the mean should
     land well within 5 sigma. *)
  let rng = Prng.create ~seed:11L in
  let total = ref 0 in
  for _ = 1 to 200 do
    total := !total + Psm_bits.Bits.popcount (Prng.bits rng ~width:128)
  done;
  let mean = float_of_int !total /. 200. in
  Alcotest.(check bool) "balanced" true (abs_float (mean -. 64.) < 2.)

let test_prng_split_independent () =
  let rng = Prng.create ~seed:5L in
  let s1 = Prng.split rng in
  let s2 = Prng.split rng in
  Alcotest.(check bool) "split streams differ" true
    (Prng.next_int64 s1 <> Prng.next_int64 s2)

(* ---------- properties ---------- *)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:100 ~name arb f)

let arb_floats =
  QCheck.(list_of_size Gen.(int_range 2 60) (float_range (-1000.) 1000.))

let properties =
  [ prop "welford equals two-pass" arb_floats (fun l ->
        let a = Array.of_list l in
        let online = D.Online.create () in
        Array.iter (D.Online.add online) a;
        abs_float (D.mean a -. D.Online.mean online) < 1e-6
        && abs_float (D.variance a -. D.Online.variance online) < 1e-4);
    prop "merge equals append"
      (QCheck.pair arb_floats arb_floats)
      (fun (l1, l2) ->
        let a = Array.of_list l1 and b = Array.of_list l2 in
        let oa = D.Online.create () and ob = D.Online.create () in
        Array.iter (D.Online.add oa) a;
        Array.iter (D.Online.add ob) b;
        let merged = D.Online.merge oa ob in
        let whole = D.Online.create () in
        Array.iter (D.Online.add whole) (Array.append a b);
        abs_float (D.Online.mean merged -. D.Online.mean whole) < 1e-6
        && abs_float (D.Online.variance merged -. D.Online.variance whole) < 1e-4);
    prop "t cdf monotone" (QCheck.pair (QCheck.float_range (-5.) 5.) (QCheck.float_range (-5.) 5.))
      (fun (a, b) ->
        let lo = Float.min a b and hi = Float.max a b in
        Dist.student_t_cdf ~df:7. lo <= Dist.student_t_cdf ~df:7. hi +. 1e-12);
    prop "t cdf complement" (QCheck.float_range (-6.) 6.) (fun t ->
        abs_float (Dist.student_t_cdf ~df:9. t +. Dist.student_t_cdf ~df:9. (-.t) -. 1.)
        < 1e-9);
    prop "pearson bounded" (QCheck.pair arb_floats arb_floats) (fun (l1, l2) ->
        let n = min (List.length l1) (List.length l2) in
        QCheck.assume (n >= 2);
        let x = Array.of_list (List.filteri (fun i _ -> i < n) l1) in
        let y = Array.of_list (List.filteri (fun i _ -> i < n) l2) in
        let r = Reg.pearson x y in
        r >= -1.0000001 && r <= 1.0000001);
    prop "regression recovers affine data"
      (QCheck.triple (QCheck.float_range (-5.) 5.) (QCheck.float_range (-100.) 100.) arb_floats)
      (fun (slope, intercept, xs) ->
        QCheck.assume (List.length xs >= 3);
        let x = Array.of_list xs in
        QCheck.assume (D.variance x > 1e-6);
        let y = Array.map (fun v -> (slope *. v) +. intercept) x in
        let fit = Reg.fit ~x ~y in
        abs_float (fit.Reg.slope -. slope) < 1e-4
        && abs_float (fit.Reg.intercept -. intercept) < 1e-2) ]

let suite =
  ( "stats",
    [ Alcotest.test_case "mean/variance" `Quick test_mean_variance;
      Alcotest.test_case "slices" `Quick test_slices;
      Alcotest.test_case "min/max" `Quick test_min_max;
      Alcotest.test_case "online matches two-pass" `Quick test_online_matches_two_pass;
      Alcotest.test_case "online merge" `Quick test_online_merge;
      Alcotest.test_case "log_gamma" `Quick test_log_gamma;
      Alcotest.test_case "beta" `Quick test_beta;
      Alcotest.test_case "incomplete beta" `Quick test_incomplete_beta;
      Alcotest.test_case "student t cdf" `Quick test_student_t_cdf;
      Alcotest.test_case "two-sided p" `Quick test_two_sided;
      Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
      Alcotest.test_case "welch identical" `Quick test_welch_identical;
      Alcotest.test_case "welch distinct" `Quick test_welch_distinct;
      Alcotest.test_case "welch textbook values" `Quick test_welch_textbook;
      Alcotest.test_case "welch symmetry" `Quick test_welch_symmetry;
      Alcotest.test_case "welch degenerate" `Quick test_welch_degenerate;
      Alcotest.test_case "one-sample" `Quick test_one_sample;
      Alcotest.test_case "alpha monotonicity" `Quick test_alpha_monotonicity;
      Alcotest.test_case "df infinite and NaN" `Quick test_df_infinite_and_nan;
      Alcotest.test_case "welch extreme scales" `Quick test_welch_extreme_scales;
      Alcotest.test_case "screened verdict at the table's edges" `Quick test_screen_edges;
      QCheck_alcotest.to_alcotest test_screen_random;
      QCheck_alcotest.to_alcotest test_tail_monotone_in_df;
      Alcotest.test_case "screened verdicts: cold tables on 4 domains" `Quick
        test_screen_concurrent_training;
      Alcotest.test_case "fit exact line" `Quick test_fit_exact_line;
      Alcotest.test_case "fit negative" `Quick test_fit_negative_correlation;
      Alcotest.test_case "pearson independent" `Quick test_pearson_independent;
      Alcotest.test_case "fit constant x" `Quick test_fit_constant_x;
      Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
      Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
      Alcotest.test_case "prng bits width" `Quick test_prng_bits_width;
      Alcotest.test_case "prng bits balanced" `Quick test_prng_bits_balanced;
      Alcotest.test_case "prng split" `Quick test_prng_split_independent ]
    @ properties )
