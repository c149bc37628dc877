module Psm = Psm_core.Psm
module Functional_trace = Psm_trace.Functional_trace
module Sample_tracker = Psm_mining.Sample_tracker

(* Smoothing floor: keeps the lattice connected through observations or
   transitions absent from training, at negligible cost to likelihoods
   that training does support. *)
let floor_p = 1e-9

(* The PSM's A matrix is defined over state CHANGES (segment
   boundaries); a per-instant lattice additionally needs the
   probability of staying put. Expected dwell time per state comes
   from its power attributes: n instants over k training visits. *)
let dwell_of hmm =
  let m = Hmm.state_count hmm in
  let psm = Hmm.psm hmm in
  Array.init m (fun row ->
      let s = Psm.state psm (Hmm.state_of_row hmm row) in
      let visits = max 1 (List.length s.Psm.attr.Psm_core.Power_attr.intervals) in
      Float.max 1.5
        (float_of_int s.Psm.attr.Psm_core.Power_attr.n /. float_of_int visits))

let log_f v = log (Float.max v floor_p)

(* Dense max-product: a full m × m scan per instant, strict [>] over
   ascending predecessors, so ties resolve to the lowest row index. *)
let viterbi hmm observations =
  let m = Hmm.state_count hmm in
  let n = Array.length observations in
  if n = 0 then [||]
  else
    let dwell = dwell_of hmm in
    let log_a =
      Array.init m (fun i ->
          let stay = 1. -. (1. /. dwell.(i)) in
          Array.init m (fun j ->
              if i = j then log_f (Float.max stay (Hmm.a hmm i j))
              else log_f ((1. -. stay) *. Hmm.a hmm i j)))
    in
    let emission row t =
      match observations.(t) with
      | None -> 0. (* uninformative *)
      | Some prop -> log_f (Hmm.b_obs hmm row prop)
    in
    let score = Array.make_matrix n m neg_infinity in
    let back = Array.make_matrix n m 0 in
    let pi = Hmm.pi hmm in
    for j = 0 to m - 1 do
      score.(0).(j) <- log_f pi.(j) +. emission j 0
    done;
    for t = 1 to n - 1 do
      for j = 0 to m - 1 do
        let best = ref neg_infinity and arg = ref 0 in
        for i = 0 to m - 1 do
          let candidate = score.(t - 1).(i) +. log_a.(i).(j) in
          if candidate > !best then begin
            best := candidate;
            arg := i
          end
        done;
        score.(t).(j) <- !best +. emission j t;
        back.(t).(j) <- !arg
      done
    done;
    let path = Array.make n 0 in
    let best = ref neg_infinity in
    for j = 0 to m - 1 do
      if score.(n - 1).(j) > !best then begin
        best := score.(n - 1).(j);
        path.(n - 1) <- j
      end
    done;
    for t = n - 2 downto 0 do
      path.(t) <- back.(t + 1).(path.(t + 1))
    done;
    path

(* Per-instant observations and input Hamming distances, one
   classification per run of identical samples. *)
let observe hmm trace =
  let n = Functional_trace.length trace in
  let observations = Array.make n None and hd = Array.make n 0. in
  Sample_tracker.iter_runs (Psm.prop_table (Hmm.psm hmm)) trace
    (fun ~start ~len ~code ~distance ->
      if code >= 0 then Array.fill observations start len (Some code);
      hd.(start) <- float_of_int distance);
  (observations, hd)

let decode hmm trace = Array.map (Hmm.state_of_row hmm) (viterbi hmm (fst (observe hmm trace)))

let estimate hmm trace =
  let psm = Hmm.psm hmm in
  let observations, hd = observe hmm trace in
  Array.mapi
    (fun t row ->
      Psm.eval_output (Psm.state psm (Hmm.state_of_row hmm row)).Psm.output ~hamming:hd.(t))
    (viterbi hmm observations)

let evaluate hmm trace ~reference =
  Accuracy.of_estimate ~reference ~estimate:(estimate hmm trace) ~wsp:0.
