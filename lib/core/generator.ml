module Prop_trace = Psm_mining.Prop_trace
module Power_trace = Psm_trace.Power_trace

let assertion_of_pattern = function
  | Xu.Until (p, q) -> Assertion.Until (p, q)
  | Xu.Next (p, q) -> Assertion.Next (p, q)

(* The Xu walk, collapsed to one step per maximal Γ segment: for each
   consecutive segment pair ⟨p, s, e⟩, ⟨q, _, _⟩ the automaton emits
   (e > s ? p U q : p X q) over [s, e] — a multi-instant run passes
   through the `U state, a single instant stays in `X — and exhausts
   with the final segment pending, i.e. trailing_stop = len - 1. Pinned
   against the per-cycle {!Xu} walk by the RLE equivalence tests. *)
let triplets_of_segments segs =
  let rec go acc = function
    | (p, s, e) :: ((q, _, _) :: _ as rest) ->
        let pat = if e > s then Xu.Until (p, q) else Xu.Next (p, q) in
        go ((pat, s, e) :: acc) rest
    | _ -> List.rev acc
  in
  go [] segs

let generate psm ~trace gamma delta =
  Psm_obs.span "generate.chain" @@ fun () ->
  let len = Prop_trace.length gamma in
  if len = 0 then invalid_arg "Generator.generate: empty proposition trace";
  if len <> Power_trace.length delta then
    invalid_arg "Generator.generate: proposition and power traces differ in length";
  if Prop_trace.table gamma != Psm.prop_table psm then
    invalid_arg "Generator.generate: proposition table mismatch";
  let triplets = triplets_of_segments (Prop_trace.segments gamma) in
  Psm_obs.count "generate.xu_triplets" (List.length triplets);
  let stop = len - 1 in
  let triplets =
    (* End-of-trace attribution. A trailing run of a single instant is
       folded into the last pattern's interval (the paper's own example:
       ⟨p_c X p_d, 6, 7⟩ covers p_d's instant); a longer trailing run —
       the trace was cut mid-behaviour — becomes its own absorbing state
       asserting the run persists, so its power cannot pollute the last
       recognized state's attributes. *)
    match List.rev triplets with
    | (pat, start, last_stop) :: earlier as all ->
        let tail_start = last_stop + 1 in
        let tail_prop = Prop_trace.prop_at gamma tail_start in
        if stop = tail_start then List.rev ((pat, start, stop) :: earlier)
        else List.rev ((Xu.Until (tail_prop, tail_prop), tail_start, stop) :: all)
    | [] ->
        (* Single-run trace: one state asserting the run persists. *)
        let p = Prop_trace.prop_at gamma 0 in
        [ (Xu.Until (p, p), 0, stop) ]
  in
  let add (psm, prev) (pattern, start, stop) =
    let attr = Power_attr.of_interval delta ~trace ~start ~stop in
    let psm, id = Psm.add_state psm (assertion_of_pattern pattern) attr in
    let psm =
      match prev with
      | None -> Psm.add_initial psm id
      | Some prev_id ->
          let entry = match pattern with Xu.Until (p, _) | Xu.Next (p, _) -> p in
          Psm.add_transition psm ~src:prev_id ~guard:entry ~dst:id
    in
    (psm, Some id)
  in
  fst (List.fold_left add (psm, None) triplets)
