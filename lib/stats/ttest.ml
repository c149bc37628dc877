type result = {
  t_statistic : float;
  degrees_of_freedom : float;
  p_value : float;
}

(* The statistic and degrees of freedom a test reports; its p-value is
   [p_value] of them. A float-only record, so it is one flat block. *)
type stat = { t : float; df : float }

(* No variance on either side: the test reduces to exact comparison. The
   two-sided tail at df = 1 is exactly 1 at t = 0 and 0 at t = ∞. *)
let degenerate mean1 mean2 = if mean1 = mean2 then { t = 0.; df = 1. } else { t = infinity; df = 1. }

let undefined = { t = nan; df = nan }

let p_value s =
  if Float.is_nan s.df then nan else Distribution.student_t_sf_two_sided ~df:s.df s.t

let result s = { t_statistic = s.t; degrees_of_freedom = s.df; p_value = p_value s }

(* Below 2^-200 or above 2^200 the larger stddev makes σ², σ⁴/n³ or se²²
   underflow or overflow, and Welch–Satterthwaite's df reads NaN, 0 or a
   rounded-away value. Those inputs are scaled by a power of two first
   (df is invariant to a common scale of both variances; t is scaled back
   exactly); inside the range the formula runs on the inputs as given. *)
let welch_stat ~mean1 ~stddev1 ~n1 ~mean2 ~stddev2 ~n2 =
  if n1 < 2 || n2 < 2 then invalid_arg "Ttest.welch: both samples need n >= 2";
  let scale = Float.max (abs_float stddev1) (abs_float stddev2) in
  if not (Float.is_finite scale) then undefined
  else begin
    let e = if scale = 0. || (scale >= 0x1p-200 && scale <= 0x1p200) then 0 else snd (Float.frexp scale) in
    let stddev1 = if e = 0 then stddev1 else Float.ldexp stddev1 (-e) in
    let stddev2 = if e = 0 then stddev2 else Float.ldexp stddev2 (-e) in
    let v1 = stddev1 *. stddev1 and v2 = stddev2 *. stddev2 in
    let nf1 = float_of_int n1 and nf2 = float_of_int n2 in
    let se2 = (v1 /. nf1) +. (v2 /. nf2) in
    if se2 <= 0. then degenerate mean1 mean2
    else begin
      let t = (mean1 -. mean2) /. sqrt se2 in
      let df =
        se2 *. se2
        /. ((v1 *. v1 /. (nf1 *. nf1 *. (nf1 -. 1.)))
           +. (v2 *. v2 /. (nf2 *. nf2 *. (nf2 -. 1.))))
      in
      { t = (if e = 0 then t else Float.ldexp t (-e)); df }
    end
  end

let one_sample_stat ~mean ~stddev ~n ~value =
  if n < 2 then invalid_arg "Ttest.one_sample: population needs n >= 2";
  let nf = float_of_int n in
  if stddev <= 0. then degenerate mean value
  else begin
    let se = stddev *. sqrt (1. +. (1. /. nf)) in
    { t = (value -. mean) /. se; df = nf -. 1. }
  end

let welch ~mean1 ~stddev1 ~n1 ~mean2 ~stddev2 ~n2 =
  result (welch_stat ~mean1 ~stddev1 ~n1 ~mean2 ~stddev2 ~n2)

let one_sample ~mean ~stddev ~n ~value = result (one_sample_stat ~mean ~stddev ~n ~value)

let check_alpha name alpha =
  if alpha <= 0. || alpha >= 1. then invalid_arg ("Ttest." ^ name ^ ": alpha in (0,1)")

let equal_means ?(alpha = 0.05) r =
  check_alpha "equal_means" alpha;
  r.p_value >= alpha

(* ---------- screened verdicts ---------- *)

(* The grid of degrees of freedom: 1 … 64, then steps of 9/8 up to 2^20. *)
let step = 1.125
let log_step = log step

let grid =
  let rec geometric g acc = if g > 0x1p20 then List.rev acc else geometric (g *. step) (g :: acc) in
  Array.of_list (List.init 64 (fun k -> float_of_int (k + 1)) @ geometric (64. *. step) [])

let grid_points = Array.length grid
let grid_point k = grid.(k)

(* The k with grid.(k) <= df < grid.(k + 1), for 1 <= df < the last
   point; the log only guesses k above 64, the loops make it exact. *)
let grid_index df =
  if df < 64. then int_of_float df - 1
  else begin
    let k = ref (min (grid_points - 1) (63 + int_of_float (log (df /. 64.) /. log_step))) in
    while !k + 1 < grid_points && grid.(!k + 1) <= df do incr k done;
    while grid.(!k) > df do decr k done;
    !k
  end

(* The two-sided critical value at df: the |t| where the computed
   p-value crosses alpha, by bisection to 1e-12 relative. *)
let critical_at ~alpha df =
  let p t = Distribution.student_t_sf_two_sided ~df t in
  let rec widen hi = if p hi >= alpha then widen (2. *. hi) else hi in
  let hi = widen 1. in
  let rec bisect lo hi =
    if hi -. lo <= 1e-12 *. hi then 0.5 *. (lo +. hi)
    else
      let mid = 0.5 *. (lo +. hi) in
      if p mid >= alpha then bisect mid hi else bisect lo mid
  in
  bisect (if hi = 1. then 0. else 0.5 *. hi) hi

(* One table per alpha, entries NaN until first needed. The registry is
   an atomic list; an entry is a deterministic function of (alpha, k),
   so two domains filling one entry at once write the same float, and a
   reader sees either NaN (and computes it itself) or that value. *)
type table = { alpha : float; crit : float array }

let registry : table list Atomic.t = Atomic.make []

let rec find alpha = function
  | [] -> None
  | t :: rest -> if Float.equal t.alpha alpha then Some t else find alpha rest

let rec table alpha =
  let known = Atomic.get registry in
  match find alpha known with
  | Some t -> t
  | None ->
      let t = { alpha; crit = Array.make grid_points nan } in
      if Atomic.compare_and_set registry known (t :: known) then t else table alpha

let critical tbl k =
  let c = tbl.crit.(k) in
  if Float.is_nan c then begin
    let c = critical_at ~alpha:tbl.alpha grid.(k) in
    tbl.crit.(k) <- c;
    c
  end
  else c

let critical_value ~alpha k =
  check_alpha "critical_value" alpha;
  if k < 0 || k >= grid_points then invalid_arg "Ttest.critical_value: grid index";
  critical (table alpha) k

(* The screen decides |t| against the table by a relative margin of
   1e-4: far above the table's bisection width and the p-value's own
   rounding on the grid, so a screened verdict is the computed one. It
   covers alpha in [1e-12, 0.5] and df in [1, 2^20]; outside them, and
   between the screen's two bounds, the exact p-value decides. *)
let margin = 1e-4

let screened alpha s =
  let t = abs_float s.t and df = s.df in
  if not (alpha >= 1e-12 && alpha <= 0.5 && df >= 1. && df < grid.(grid_points - 1)) then
    p_value s >= alpha
  else begin
    let tbl = table alpha in
    let k = grid_index df in
    let c = critical tbl k in
    if t > c *. (1. +. margin) then false
    else
      (* The two-sided tail falls as df grows, so c(df) lies in
         (c(g_k+1), c(g_k)]; on a grid point it is c(g_k) itself. *)
      let lower = if grid.(k) = df then c else critical tbl (k + 1) in
      t < lower *. (1. -. margin) || p_value s >= alpha
  end

let welch_equal_means ~alpha ~mean1 ~stddev1 ~n1 ~mean2 ~stddev2 ~n2 =
  check_alpha "welch_equal_means" alpha;
  screened alpha (welch_stat ~mean1 ~stddev1 ~n1 ~mean2 ~stddev2 ~n2)

let one_sample_equal_means ~alpha ~mean ~stddev ~n ~value =
  check_alpha "one_sample_equal_means" alpha;
  screened alpha (one_sample_stat ~mean ~stddev ~n ~value)
