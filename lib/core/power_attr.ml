module Power_trace = Psm_trace.Power_trace
module Online = Psm_stats.Descriptive.Online

type interval = { trace : int; start : int; stop : int }

type t = { mu : float; sigma : float; n : int; intervals : interval list }

let of_interval power ~trace ~start ~stop =
  let mu, sigma, n = Power_trace.attributes power ~start ~stop in
  { mu; sigma; n; intervals = [ { trace; start; stop } ] }

let merge_stats a b =
  (* Chan et al. parallel combination of (μ, σ, n) summaries; exact. *)
  let na = float_of_int a.n and nb = float_of_int b.n in
  let n = a.n + b.n in
  let nf = na +. nb in
  let mu = ((a.mu *. na) +. (b.mu *. nb)) /. nf in
  let m2 a' =
    (* Back out the sum of squared deviations from the unbiased sigma. *)
    a'.sigma *. a'.sigma *. float_of_int (max (a'.n - 1) 0)
  in
  let delta = b.mu -. a.mu in
  let m2_total = m2 a +. m2 b +. (delta *. delta *. na *. nb /. nf) in
  let sigma = if n < 2 then 0. else sqrt (m2_total /. (nf -. 1.)) in
  { mu; sigma; n; intervals = [] }

let merge a b = { (merge_stats a b) with intervals = a.intervals @ b.intervals }

(* Member lists arrive newest first. Each is copied once, except the
   newest, which becomes the shared tail. *)
let concat_rev = function
  | [] -> []
  | last :: earlier -> List.fold_left (fun acc l -> l @ acc) last earlier

let recompute powers t =
  let acc = Online.create () in
  List.iter
    (fun { trace; start; stop } ->
      let p = powers.(trace) in
      for i = start to stop do
        Online.add acc (Power_trace.get p i)
      done)
    t.intervals;
  { t with mu = Online.mean acc; sigma = Online.stddev acc; n = Online.count acc }

let relative_sigma t = if t.mu = 0. then t.sigma else t.sigma /. abs_float t.mu

let pp fmt t =
  Format.fprintf fmt "mu=%.4g sigma=%.4g n=%d (%d intervals)" t.mu t.sigma t.n
    (List.length t.intervals)
