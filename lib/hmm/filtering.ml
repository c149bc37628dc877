module Psm = Psm_core.Psm
module Functional_trace = Psm_trace.Functional_trace
module Table = Psm_mining.Prop_trace.Table
module Sample_tracker = Psm_mining.Sample_tracker

let floor_p = 1e-9

type t = {
  hmm : Hmm.t;
  a_instant_csr : Sparse.t; (* dwell-corrected per-instant transitions *)
  a_instant_csc : Sparse.csc; (* gather form for the batched sweep *)
  outputs : Psm.output array; (* row -> state output, resolved once *)
  emissions : float array array;
      (* [0] -> all-ones (code -1, unknown observation); [p + 1] ->
         per-row emission of proposition p, floored; last -> all
         [floor_p], the floored emission of every code outside the
         model's table. Nothing writes a [t] after [create]. *)
}

let create hmm =
  let m = Hmm.state_count hmm in
  let psm = Hmm.psm hmm in
  let dwell =
    Array.init m (fun row ->
        let s = Psm.state psm (Hmm.state_of_row hmm row) in
        let visits = max 1 (List.length s.Psm.attr.Psm_core.Power_attr.intervals) in
        Float.max 1.5
          (float_of_int s.Psm.attr.Psm_core.Power_attr.n /. float_of_int visits))
  in
  let a_instant =
    Array.init m (fun i ->
        let stay = 1. -. (1. /. dwell.(i)) in
        let row =
          Array.init m (fun j ->
              if i = j then Float.max stay (Hmm.a hmm i j)
              else (1. -. stay) *. Hmm.a hmm i j)
        in
        let total = Array.fold_left ( +. ) 0. row in
        if total > 0. then Array.map (fun v -> v /. total) row else row)
  in
  let a_instant_csr = Sparse.of_dense a_instant in
  { hmm;
    a_instant_csr;
    a_instant_csc = Sparse.transpose a_instant_csr;
    outputs =
      Array.init m (fun row ->
          (Psm.state psm (Hmm.state_of_row hmm row)).Psm.output);
    emissions =
      (let nprops = Table.prop_count (Psm.prop_table psm) in
       Array.init (nprops + 2) (fun k ->
           if k = 0 then Array.make m 1.
           else if k = nprops + 1 then Array.make m floor_p
           else
             Array.init m (fun row ->
                 Float.max floor_p (Hmm.b_obs hmm row (k - 1))))) }

(* The emission row of a proposition code; a code outside the table (a
   hostile client can send any integer) reads the all-floor row, which
   is what [Hmm.b_obs]'s 0 floors to. *)
let emission_row t code =
  let last = Array.length t.emissions - 1 in
  if code >= -1 && code < last - 1 then t.emissions.(code + 1) else t.emissions.(last)

(* ---------- the α recursion, one observation at a time ---------- *)

(* CONTRACT (see the mli): everything in this module reads [t] but never
   writes it. The serve engine steps every shard of a model against one
   shared [t], and the whole-trace entry points below run their own
   [state]; a write to [t] here breaks both. *)
module Stream = struct
  type state = {
    alpha : float array;
    scratch : float array;
    mutable steps : int;
    log_lik : float array; (* [| cumulative log likelihood |]: unboxed *)
  }

  let make t =
    let m = Hmm.state_count t.hmm in
    { alpha = Array.make m 0.; scratch = Array.make m 0.; steps = 0; log_lik = [| 0. |] }

  type portable = { p_steps : int; p_log_lik : float; p_belief : float array }

  let export s =
    { p_steps = s.steps; p_log_lik = s.log_lik.(0); p_belief = Array.copy s.alpha }

  (* Checkpoints travel over the wire, so every field is validated
     against the target model before a session is built from it: a
     hostile blob must earn an [Error], never out-of-bounds state. *)
  let import t p =
    let m = Hmm.state_count t.hmm in
    if p.p_steps < 0 then Error "negative step count"
    else if not (Float.is_finite p.p_log_lik) then
      Error "non-finite log likelihood"
    else if Array.length p.p_belief <> m then
      Error
        (Printf.sprintf "belief has %d entries, model has %d states"
           (Array.length p.p_belief) m)
    else if
      Array.exists (fun v -> (not (Float.is_finite v)) || v < 0.) p.p_belief
    then Error "belief entry outside [0, +inf)"
    else if p.p_steps > 0 && Array.for_all (fun v -> v = 0.) p.p_belief then
      Error "belief of a started session has no mass"
    else
      Ok
        { alpha = Array.copy p.p_belief;
          scratch = Array.make m 0.; (* transient: overwritten each step *)
          steps = p.p_steps;
          log_lik = [| p.p_log_lik |] }

  let copy s =
    { s with
      alpha = Array.copy s.alpha;
      scratch = Array.copy s.scratch;
      log_lik = Array.copy s.log_lik }

  let steps s = s.steps
  let log_likelihood s = s.log_lik.(0)
  let belief s = s.alpha

  (* Scalar step: one iteration of the normalized α recursion. The
     whole-trace entry points are loops of it, and the batched sweep is
     measured (and tested bit-identical) against it. Plain loops, no
     closure: a step allocates nothing after the first. *)
  let step t s code =
    let m = Array.length s.alpha in
    let alpha = s.alpha and scratch = s.scratch in
    let ev = emission_row t code in
    if s.steps = 0 then begin
      let pi = Hmm.pi t.hmm in
      for j = 0 to m - 1 do
        alpha.(j) <- pi.(j) *. ev.(j)
      done
    end
    else begin
      Array.fill scratch 0 m 0.;
      Sparse.scatter_product t.a_instant_csr alpha scratch;
      for j = 0 to m - 1 do
        alpha.(j) <- scratch.(j) *. ev.(j)
      done
    end;
    let total = ref 0. in
    for j = 0 to m - 1 do
      total := !total +. alpha.(j)
    done;
    let total = !total in
    if total > 0. then
      for j = 0 to m - 1 do
        alpha.(j) <- alpha.(j) /. total
      done
    else (* Impossible observation everywhere: reset to uniform. *)
      Array.fill alpha 0 m (1. /. float_of_int m);
    s.log_lik.(0) <- s.log_lik.(0) +. log (if total > 0. then total else floor_p);
    s.steps <- s.steps + 1

  (* [map_state]/[power] run once per session-cycle on the serve path —
     monomorphic loops (no closure, [eval_output] inlined by constructor)
     and one visit order, which {!map_states} / {!expected_power} share
     by calling them. *)
  let map_state _t s =
    let alpha = s.alpha in
    let best = ref 0 in
    let best_v = ref (Array.unsafe_get alpha 0) in
    for j = 1 to Array.length alpha - 1 do
      let v = Array.unsafe_get alpha j in
      if v > !best_v then begin
        best := j;
        best_v := v
      end
    done;
    !best

  (* Inlined, like [power_into]: a float returned from, or passed to, a
     call is boxed, and within this module neither is. *)
  let[@inline] power t s ~hamming =
    let alpha = s.alpha and outputs = t.outputs in
    let acc = ref 0. in
    for row = 0 to Array.length alpha - 1 do
      let p = Array.unsafe_get alpha row in
      if p > 0. then
        acc :=
          !acc
          +. p
             *.
             match Array.unsafe_get outputs row with
             | Psm.Const mu -> mu
             | Psm.Affine { slope; intercept } -> (slope *. hamming) +. intercept
    done;
    !acc

  let[@inline] power_into t s ~hamming out i = out.(i) <- power t s ~hamming

  (* The serve fast path: one batched sweep in which every session
     advances one observation, with the per-session scoring folded into
     the normalize pass. Per session the arithmetic is [step]'s exactly:
     contributions reach each belief entry in ascending-i order, scaled
     by the emission and summed in ascending-j order in the same pass
     ({!Sparse.gather_scaled}), and the normalize divides by that sum.
     [powers]/[rows] accumulate over the *stored* normalized values in
     the same ascending-row order — with the same [p > 0.] guard and
     strict-[>] argmax — as a separate {!power_into} / {!map_state} pass
     would. Only the loop structure differs: the CSC traversal is one
     gather into [scratch] that also applies the emission row from the
     precomputed table and sums, and normalize and scoring are fused into
     one monomorphic unsafe pass. Every float op and comparison it
     performs is one the unfused per-session pipeline performs on
     identical inputs, in the same order, so the results stay
     bit-identical. *)
  let sweep t states codes ~hds ~powers ~rows =
    let n = Array.length states in
    if
      Array.length codes <> n || Array.length hds <> n
      || Array.length powers <> n
      || Array.length rows <> n
    then invalid_arg "Filtering.Stream.sweep: length mismatch";
    let m = Hmm.state_count t.hmm in
    let outputs = t.outputs in
    let total_cell = [| 0. |] in
    for s = 0 to n - 1 do
      let st = Array.unsafe_get states s in
      if st.steps = 0 then begin
        step t st codes.(s);
        power_into t st ~hamming:hds.(s) powers s;
        rows.(s) <- map_state t st
      end
      else begin
        let scratch = st.scratch in
        Sparse.gather_scaled t.a_instant_csc st.alpha ~scale:(emission_row t codes.(s))
          scratch ~total:total_cell;
        let total = total_cell.(0) in
        if total > 0. then begin
          st.log_lik.(0) <- st.log_lik.(0) +. log total;
          let alpha = st.alpha in
          let hamming = Array.unsafe_get hds s in
          let acc = ref 0. in
          let best = ref 0 in
          let best_v = ref 0. in
          for j = 0 to m - 1 do
            let p = Array.unsafe_get scratch j /. total in
            Array.unsafe_set alpha j p;
            if p > 0. then
              acc :=
                !acc
                +. p
                   *. (match Array.unsafe_get outputs j with
                      | Psm.Const mu -> mu
                      | Psm.Affine { slope; intercept } -> (slope *. hamming) +. intercept);
            if j = 0 || p > !best_v then begin
              best := j;
              best_v := p
            end
          done;
          Array.unsafe_set powers s !acc;
          Array.unsafe_set rows s !best
        end
        else begin
          (* Degenerate instant (zero likelihood mass): fall back to the
             uniform belief exactly as [step] does, then score it with
             the reference passes — this path is cold. *)
          Array.fill st.alpha 0 m (1. /. float_of_int m);
          st.log_lik.(0) <- st.log_lik.(0) +. log floor_p;
          power_into t st ~hamming:hds.(s) powers s;
          rows.(s) <- map_state t st
        end;
        st.steps <- st.steps + 1
      end
    done
end

(* ---------- whole-trace entry points ---------- *)

(* The α recursion over a whole observation sequence: a loop of
   [Stream.step] over a fresh state; [emit time s] sees each step's
   state. Returns the log likelihood. *)
let forward t observations ~emit =
  Psm_obs.span "hmm.forward" @@ fun () ->
  let s = Stream.make t in
  Array.iteri
    (fun time o ->
      Stream.step t s (Option.value o ~default:(-1));
      emit time s)
    observations;
  Stream.log_likelihood s

let posteriors t observations =
  let post = Array.make (Array.length observations) [||] in
  let (_ : float) =
    forward t observations ~emit:(fun time s -> post.(time) <- Array.copy (Stream.belief s))
  in
  post

let map_states t observations =
  let states = Array.make (Array.length observations) 0 in
  let (_ : float) =
    forward t observations ~emit:(fun time s -> states.(time) <- Stream.map_state t s)
  in
  states

let expected_power t trace =
  let power = Array.make (Functional_trace.length trace) 0. in
  Psm_obs.span "hmm.forward" @@ fun () ->
  let s = Stream.make t in
  Sample_tracker.iter_runs (Psm.prop_table (Hmm.psm t.hmm)) trace
    (fun ~start ~len ~code ~distance ->
      for time = start to start + len - 1 do
        Stream.step t s code;
        Stream.power_into t s
          ~hamming:(if time = start then float_of_int distance else 0.)
          power time
      done);
  power

(* Likelihood without materializing the O(T×m) posterior matrix. *)
let log_likelihood t observations = forward t observations ~emit:(fun _ _ -> ())
