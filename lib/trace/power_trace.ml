type t = float array

let valid_energy x = Float.is_finite x && x >= 0.

let of_array a =
  Array.iter
    (fun x ->
      if not (valid_energy x) then
        invalid_arg "Power_trace.of_array: energies must be finite and non-negative")
    a;
  Array.copy a

(* Every reader checks [valid_energy] before it pushes a value. *)
let of_column = Column.to_array

let length = Array.length
let get t i = t.(i)
let to_array = Array.copy

let attributes t ~start ~stop =
  let mu = Psm_stats.Descriptive.mean_slice t ~start ~stop in
  let sigma = Psm_stats.Descriptive.stddev_slice t ~start ~stop in
  (mu, sigma, stop - start + 1)

let total_energy = Array.fold_left ( +. ) 0.

let mean t =
  if Array.length t = 0 then invalid_arg "Power_trace.mean: empty trace";
  total_energy t /. float_of_int (Array.length t)

let sub t ~start ~stop =
  if start < 0 || stop >= Array.length t || stop < start then
    invalid_arg "Power_trace.sub: bad range";
  Array.sub t start (stop - start + 1)

let append = Array.append

let mean_relative_error ~reference ~estimate =
  let n = Array.length reference in
  if n <> Array.length estimate then
    invalid_arg "Power_trace.mean_relative_error: traces of different lengths";
  if n = 0 then invalid_arg "Power_trace.mean_relative_error: empty traces";
  let mu_ref = mean reference in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let err = abs_float (estimate.(i) -. reference.(i)) in
    (* Zero-reference instants are normalized by the trace-wide mean rather
       than dropped: dropping them would reward models that guess wildly
       exactly where the design is quiescent. *)
    let denom = if reference.(i) > 0. then reference.(i) else mu_ref in
    acc := !acc +. (if denom > 0. then err /. denom else 0.)
  done;
  !acc /. float_of_int n

let pp_summary fmt t =
  if Array.length t = 0 then Format.fprintf fmt "empty power trace"
  else
    Format.fprintf fmt "power trace of %d instants, mean %.4g, total %.4g"
      (Array.length t) (mean t) (total_energy t)
