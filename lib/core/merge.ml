module Ttest = Psm_stats.Ttest

type config = {
  epsilon : float;
  alpha : float;
  min_n_for_test : int;
  practical_equivalence : bool;
}

let default =
  { epsilon = 0.15; alpha = 0.005; min_n_for_test = 4; practical_equivalence = true }

type case = Case1_next_next | Case2_until_until | Case3_until_next

let case_of (a : Power_attr.t) (b : Power_attr.t) =
  match (a.n, b.n) with
  | 1, 1 -> Case1_next_next
  | 1, _ | _, 1 -> Case3_until_next
  | _ -> Case2_until_until

let close_means config mu1 mu2 =
  let scale = Float.max (abs_float mu1) (abs_float mu2) in
  if scale = 0. then true else abs_float (mu1 -. mu2) < config.epsilon *. scale

(* Practical equivalence is tested first: when it holds, the verdict is
   true whatever the t-test says, and the test is skipped. The t-test
   verdicts are screened against cached critical values (Ttest), so only
   a pair near the alpha boundary pays for a p-value (about 250 ns).
   Both parameters are validated up front, so an invalid one raises
   whichever way the verdict is reached. *)
let mergeable config (a : Power_attr.t) (b : Power_attr.t) =
  if config.epsilon <= 0. then invalid_arg "Merge: epsilon must be positive";
  if config.alpha <= 0. || config.alpha >= 1. then invalid_arg "Merge: alpha in (0,1)";
  (config.practical_equivalence && close_means config a.mu b.mu)
  ||
  match case_of a b with
  | Case1_next_next -> close_means config a.mu b.mu
  | Case2_until_until ->
      if a.n < config.min_n_for_test || b.n < config.min_n_for_test then
        close_means config a.mu b.mu
      else
        Ttest.welch_equal_means ~alpha:config.alpha ~mean1:a.mu ~stddev1:a.sigma ~n1:a.n
          ~mean2:b.mu ~stddev2:b.sigma ~n2:b.n
  | Case3_until_next ->
      let pop, single = if a.n > 1 then (a, b) else (b, a) in
      if pop.n < config.min_n_for_test then close_means config a.mu b.mu
      else
        Ttest.one_sample_equal_means ~alpha:config.alpha ~mean:pop.mu ~stddev:pop.sigma
          ~n:pop.n ~value:single.mu
