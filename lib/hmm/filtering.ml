module Psm = Psm_core.Psm
module Functional_trace = Psm_trace.Functional_trace
module Table = Psm_mining.Prop_trace.Table

let floor_p = 1e-9

type t = {
  hmm : Hmm.t;
  a_instant_csr : Sparse.t; (* dwell-corrected per-instant transitions *)
  a_instant_csc : Sparse.csc; (* gather form for the batched sweep *)
  outputs : Psm.output array; (* row -> state output, resolved once *)
  alpha : float array; (* scratch: current belief *)
  scratch : float array; (* scratch: next belief accumulator *)
  emissions : float array array;
      (* [0] -> all-ones (unknown observation); [p + 1] -> per-row
         emission of proposition p, floored. Same values as [emission] —
         precomputed so the batched sweep reads a row instead of calling
         through [Hmm.b_obs] per state per session. *)
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
    alpha = Array.make m 0.;
    scratch = Array.make m 0.;
    emissions =
      (let nprops = Table.prop_count (Psm.prop_table psm) in
       Array.init (nprops + 1) (fun k ->
           if k = 0 then Array.make m 1.
           else
             Array.init m (fun row ->
                 Float.max floor_p (Hmm.b_obs hmm row (k - 1))))) }

let emission t row = function
  | None -> 1.
  | Some prop -> Float.max floor_p (Hmm.b_obs t.hmm row prop)

(* The precomputed emission row for an observation; out-of-vocabulary
   propositions (a hostile client can send any integer) fall back to the
   scalar [emission], which floors them everywhere. *)
let emission_row t = function
  | None -> t.emissions.(0)
  | Some p when p >= 0 && p + 1 < Array.length t.emissions -> t.emissions.(p + 1)
  | Some _ as obs ->
      Array.init (Array.length t.alpha) (fun row -> emission t row obs)

(* The α recursion, streamed: [emit time alpha] sees each normalized
   belief in turn (the array is reused — consumers must copy what they
   keep). Returns the log likelihood from the normalization constants.
   Not reentrant: the scratch buffers live in [t]. *)
let forward_iter t observations ~emit =
  Psm_obs.span "hmm.forward" @@ fun () ->
  let m = Hmm.state_count t.hmm in
  let n = Array.length observations in
  let log_lik = ref 0. in
  if n > 0 then begin
    let alpha = t.alpha and scratch = t.scratch in
    let pi = Hmm.pi t.hmm in
    for j = 0 to m - 1 do
      alpha.(j) <- pi.(j) *. emission t j observations.(0)
    done;
    let normalize v =
      let total = Array.fold_left ( +. ) 0. v in
      if total > 0. then begin
        Array.iteri (fun i x -> v.(i) <- x /. total) v;
        total
      end
      else begin
        (* Impossible observation everywhere: reset to uniform. *)
        Array.iteri (fun i _ -> v.(i) <- 1. /. float_of_int m) v;
        floor_p
      end
    in
    log_lik := log (normalize alpha);
    emit 0 alpha;
    for time = 1 to n - 1 do
      Array.fill scratch 0 m 0.;
      Sparse.scatter_product t.a_instant_csr alpha scratch;
      for j = 0 to m - 1 do
        scratch.(j) <- scratch.(j) *. emission t j observations.(time)
      done;
      Array.blit scratch 0 alpha 0 m;
      log_lik := !log_lik +. log (normalize alpha);
      emit time alpha
    done
  end;
  !log_lik

let posteriors t observations =
  let m = Hmm.state_count t.hmm in
  let post = Array.make_matrix (Array.length observations) m 0. in
  let (_ : float) =
    forward_iter t observations ~emit:(fun time alpha ->
        Array.blit alpha 0 post.(time) 0 m)
  in
  post

let map_states t observations =
  let states = Array.make (Array.length observations) 0 in
  let (_ : float) =
    forward_iter t observations ~emit:(fun time alpha ->
        let best = ref 0 in
        Array.iteri (fun j v -> if v > alpha.(!best) then best := j) alpha;
        states.(time) <- !best)
  in
  states

let classify t trace =
  let table = Psm.prop_table (Hmm.psm t.hmm) in
  Array.init (Functional_trace.length trace) (fun time ->
      Table.classify table (Functional_trace.sample trace ~time))

let expected_power t trace =
  let hd = Functional_trace.input_hamming_series trace in
  let observations = classify t trace in
  let power = Array.make (Array.length observations) 0. in
  let (_ : float) =
    forward_iter t observations ~emit:(fun time alpha ->
        let acc = ref 0. in
        Array.iteri
          (fun row p ->
            if p > 0. then
              acc := !acc +. (p *. Psm.eval_output t.outputs.(row) ~hamming:hd.(time)))
          alpha;
        power.(time) <- !acc)
  in
  power

(* Likelihood without materializing the O(T×m) posterior matrix. *)
let log_likelihood t observations = forward_iter t observations ~emit:(fun _ _ -> ())

(* ---------- Streaming sessions (the serve hot path) ---------- *)

(* CONTRACT (see the mli): everything in this module reads [t] but never
   writes it — not even [t.alpha]/[t.scratch], which belong to
   [forward_iter] above. The serve engine steps every shard of a model
   against one shared [t], and the contract lets disjoint states be
   stepped from distinct domains; a write to [t] here breaks both. *)
module Stream = struct
  type state = {
    alpha : float array;
    scratch : float array;
    mutable steps : int;
    mutable log_lik : float;
  }

  let make t =
    let m = Hmm.state_count t.hmm in
    { alpha = Array.make m 0.; scratch = Array.make m 0.; steps = 0; log_lik = 0. }

  type portable = { p_steps : int; p_log_lik : float; p_belief : float array }

  let export s =
    { p_steps = s.steps; p_log_lik = s.log_lik; p_belief = Array.copy s.alpha }

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
          log_lik = p.p_log_lik }

  let copy s = { s with alpha = Array.copy s.alpha; scratch = Array.copy s.scratch }
  let steps s = s.steps
  let log_likelihood s = s.log_lik
  let belief s = s.alpha

  (* Scalar step: one [forward_iter] iteration verbatim — same kernel,
     same fold/normalize order — so a session stepped observation by
     observation holds exactly the belief forward_iter would have emitted
     at the same instant. This is also the per-session reference loop the
     batched sweep is measured (and tested bit-identical) against. *)
  let step t s obs =
    let m = Hmm.state_count t.hmm in
    let alpha = s.alpha and scratch = s.scratch in
    let normalize v =
      let total = Array.fold_left ( +. ) 0. v in
      if total > 0. then begin
        Array.iteri (fun i x -> v.(i) <- x /. total) v;
        total
      end
      else begin
        Array.iteri (fun i _ -> v.(i) <- 1. /. float_of_int m) v;
        floor_p
      end
    in
    if s.steps = 0 then begin
      let pi = Hmm.pi t.hmm in
      for j = 0 to m - 1 do
        alpha.(j) <- pi.(j) *. emission t j obs
      done
    end
    else begin
      Array.fill scratch 0 m 0.;
      Sparse.scatter_product t.a_instant_csr alpha scratch;
      for j = 0 to m - 1 do
        scratch.(j) <- scratch.(j) *. emission t j obs
      done;
      Array.blit scratch 0 alpha 0 m
    end;
    s.log_lik <- s.log_lik +. log (normalize alpha);
    s.steps <- s.steps + 1

  (* [map_state]/[power] run once per session-cycle on the serve path —
     monomorphic loops (no closure, [eval_output] inlined by constructor)
     with the exact arithmetic and visit order of the [Array.iteri]
     originals, so the reported state and power stay bit-identical to
     {!map_states} / {!expected_power} on the whole trace. *)
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

  let power t s ~hamming =
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

  (* The serve fast path: one batched sweep in which every session
     advances one observation, with the per-session scoring folded into
     the normalize pass. Per session the arithmetic is [step]'s exactly:
     contributions reach each belief entry in ascending-i order (see
     {!Sparse.gather_product}), and the normalizing sum accumulates in
     the scalar fold's ascending-j order. [powers]/[rows] accumulate over
     the *stored* normalized values in the same ascending-row order —
     with the same [p > 0.] guard and strict-[>] argmax — as a separate
     {!power} / {!map_state} pass would. Only the loop structure differs:
     the CSC traversal is amortized across the shard, the emission
     multiply / sum / normalize / scoring are fused into monomorphic
     unsafe passes, and emission rows come from the precomputed table.
     Every float op and comparison it performs is one the unfused
     per-session pipeline performs on identical inputs, so the results
     stay bit-identical. *)
  let sweep t states obss ~hds ~powers ~rows =
    let n = Array.length states in
    if
      Array.length obss <> n || Array.length hds <> n
      || Array.length powers <> n
      || Array.length rows <> n
    then invalid_arg "Filtering.Stream.sweep: length mismatch";
    let m = Hmm.state_count t.hmm in
    let outputs = t.outputs in
    let started = Array.make n false in
    let any_started = ref false in
    for s = 0 to n - 1 do
      if states.(s).steps = 0 then begin
        step t states.(s) obss.(s);
        powers.(s) <- power t states.(s) ~hamming:hds.(s);
        rows.(s) <- map_state t states.(s)
      end
      else begin
        started.(s) <- true;
        any_started := true
      end
    done;
    if !any_started then begin
      (* Gather form: the CSC metadata stays cache-hot while the whole
         shard streams through it back to back — the batching win the
         per-session loop (scatter + clear per step) never sees. *)
      for s = 0 to n - 1 do
        if started.(s) then begin
          let st = states.(s) in
          Sparse.gather_product t.a_instant_csc st.alpha st.scratch
        end
      done;
      for s = 0 to n - 1 do
        if started.(s) then begin
          let st = Array.unsafe_get states s in
          let ev = emission_row t obss.(s) in
          let total = ref 0. in
          for j = 0 to m - 1 do
            let x = Array.unsafe_get st.scratch j *. Array.unsafe_get ev j in
            Array.unsafe_set st.alpha j x;
            total := !total +. x
          done;
          let total = !total in
          if total > 0. then begin
            st.log_lik <- st.log_lik +. log total;
            let alpha = st.alpha in
            let hamming = Array.unsafe_get hds s in
            let acc = ref 0. in
            let best = ref 0 in
            let best_v = ref 0. in
            for j = 0 to m - 1 do
              let p = Array.unsafe_get alpha j /. total in
              Array.unsafe_set alpha j p;
              if p > 0. then
                acc :=
                  !acc
                  +. p
                     *. (match Array.unsafe_get outputs j with
                        | Psm.Const mu -> mu
                        | Psm.Affine { slope; intercept } ->
                            (slope *. hamming) +. intercept);
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
            st.log_lik <- st.log_lik +. log floor_p;
            powers.(s) <- power t st ~hamming:hds.(s);
            rows.(s) <- map_state t st
          end;
          st.steps <- st.steps + 1
        end
      done
    end
end
