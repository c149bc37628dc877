module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Regression = Psm_stats.Regression

type config = { sigma_threshold : float; correlation_threshold : float }

let default = { sigma_threshold = 0.05; correlation_threshold = 0.7 }

type report = {
  state_id : int;
  relative_sigma : float;
  correlation : float;
  upgraded : bool;
}

(* The state's (Hamming distance, power) samples over its intervals,
   filled back to front: the regression sums then run over the same
   order as they always have (last instant of the last interval first). *)
let samples_of_state hamming_series powers (attr : Power_attr.t) =
  let total =
    List.fold_left
      (fun acc { Power_attr.start; stop; _ } -> acc + (stop - start + 1))
      0 attr.Power_attr.intervals
  in
  let xs = Array.make total 0. and ys = Array.make total 0. in
  let pos = ref total in
  List.iter
    (fun { Power_attr.trace; start; stop } ->
      let hd : float array = hamming_series.(trace) in
      let p = powers.(trace) in
      for i = start to stop do
        decr pos;
        xs.(!pos) <- hd.(i);
        ys.(!pos) <- Power_trace.get p i
      done)
    attr.Power_attr.intervals;
  (xs, ys)

let optimize ?(config = default) ~traces ~powers psm =
  Psm_obs.span "combine.optimize" @@ fun () ->
  if Array.length traces <> Array.length powers then
    invalid_arg "Optimize.optimize: traces and powers differ in number";
  let hamming_series = Array.map Functional_trace.input_hamming_series traces in
  let consider (psm, reports) (s : Psm.state) =
    let rel = Power_attr.relative_sigma s.Psm.attr in
    if rel <= config.sigma_threshold || s.Psm.attr.Power_attr.n < 3 then (psm, reports)
    else begin
      let xs, ys = samples_of_state hamming_series powers s.Psm.attr in
      let r = Regression.pearson xs ys in
      if abs_float r >= config.correlation_threshold then begin
        let fit = Regression.fit ~x:xs ~y:ys in
        let psm =
          Psm.set_output psm s.Psm.id
            (Psm.Affine { slope = fit.Regression.slope; intercept = fit.Regression.intercept })
        in
        (psm, { state_id = s.Psm.id; relative_sigma = rel; correlation = r; upgraded = true } :: reports)
      end
      else
        (psm, { state_id = s.Psm.id; relative_sigma = rel; correlation = r; upgraded = false } :: reports)
    end
  in
  let psm, reports = List.fold_left consider (psm, []) (Psm.states psm) in
  (psm, List.rev reports)
