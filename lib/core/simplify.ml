(* One pass: collect disjoint maximal runs of adjacent mergeable states,
   merge them, and report whether anything changed. Every table is an
   array indexed by state id ([Psm.id_bound] long), so a pass is linear
   in states and transitions. *)
let pass config psm =
  let bound = Psm.id_bound psm in
  let states = Psm.states psm in
  let state = Psm.state psm in
  let transitions = Psm.transitions psm in
  let out_deg = Array.make bound 0 and in_deg = Array.make bound 0 in
  List.iter
    (fun (tr : Psm.transition) ->
      out_deg.(tr.src) <- out_deg.(tr.src) + 1;
      in_deg.(tr.dst) <- in_deg.(tr.dst) + 1)
    transitions;
  (* unique_next.(s) = t when s -> t is a chain link, -1 otherwise. *)
  let unique_next = Array.make bound (-1) in
  let has_unique_prev = Array.make bound false in
  List.iter
    (fun (tr : Psm.transition) ->
      if tr.src <> tr.dst && out_deg.(tr.src) = 1 && in_deg.(tr.dst) = 1 then begin
        unique_next.(tr.src) <- tr.dst;
        has_unique_prev.(tr.dst) <- true
      end)
    transitions;
  (* Walk each run head, greedily accumulating mergeable members. The
     run's ⟨μ, σ, n⟩ is folded with [merge_stats]; its members' interval
     lists are joined once, when the run closes. *)
  let clustered = Array.make bound false in
  let clusters = ref [] in
  let try_run head =
    if not clustered.(head) then begin
      let rec extend members parts stats last =
        let next = unique_next.(last) in
        (* Chain links are injective, so the only state a run can reach
           twice is its head, when the run is a whole ring. *)
        let attr =
          if next < 0 || next = head || clustered.(next) then None
          else Some (state next).Psm.attr
        in
        match attr with
        | Some attr when Merge.mergeable config stats attr ->
            extend (next :: members) (attr.Power_attr.intervals :: parts)
              (Power_attr.merge_stats stats attr) next
        | Some _ | None -> (members, parts, stats)
      in
      let first = (state head).Psm.attr in
      match extend [ head ] [ first.Power_attr.intervals ] first head with
      | [ _ ], _, _ -> ()
      | rev_members, parts, stats ->
          List.iter (fun m -> clustered.(m) <- true) rev_members;
          let members = List.rev rev_members in
          let assertion =
            Assertion.seq (List.map (fun m -> (state m).Psm.assertion) members)
          in
          let attr = { stats with Power_attr.intervals = Power_attr.concat_rev parts } in
          clusters :=
            { Psm.members; new_assertion = assertion; new_attr = attr;
              new_components = [ (assertion, attr) ] }
            :: !clusters
    end
  in
  (* Heads: states that are not the unique-continuation of another state,
     visited in id order for determinism; then any state reachable only
     mid-chain is picked up as runs are marked. *)
  List.iter
    (fun (s : Psm.state) -> if not has_unique_prev.(s.Psm.id) then try_run s.Psm.id)
    states;
  List.iter (fun (s : Psm.state) -> try_run s.Psm.id) states;
  match !clusters with
  | [] -> (psm, [], false)
  | cs ->
      let psm', mapping = Psm.merge_clusters psm ~internal_edges:`Drop cs in
      (psm', mapping, true)

(* Compose merge-pass mappings into one total redirect function. Each
   changed pass is followed by a canonical {!Psm.renumber}, so every
   intermediate machine (and the final one) keeps its states in training
   order regardless of how many clusters a pass created. Pass behaviour
   that iterates states in id order — the run heads here, join's
   first-fit — therefore scans in chain order on every iteration, which
   is what lets the streaming trainer replay the fixpoint one pass-level
   at a time and land on the same machine.

   [total.(o)] is the current id of original state [o] (-1 for an id
   the input machine does not have, which redirects to itself). *)
let compose_passes ?(max_passes = max_int) pass_fn psm =
  let total = Array.make (Psm.id_bound psm) (-1) in
  List.iter (fun (s : Psm.state) -> total.(s.Psm.id) <- s.Psm.id) (Psm.states psm);
  let rec fixpoint remaining psm =
    if remaining <= 0 then psm
    else
      let psm', mapping, changed = pass_fn psm in
      if not changed then psm'
      else begin
        let merged = Array.make (Psm.id_bound psm) (-1) in
        List.iter (fun (m, id) -> merged.(m) <- id) mapping;
        let psm'', renum = Psm.renumber psm' in
        Array.iteri
          (fun o cur ->
            if cur >= 0 then
              total.(o) <- renum (if merged.(cur) >= 0 then merged.(cur) else cur))
          total;
        fixpoint (remaining - 1) psm''
      end
  in
  let final = fixpoint max_passes psm in
  let resolve id = if id >= 0 && id < Array.length total && total.(id) >= 0 then total.(id) else id in
  (final, resolve)

(* Sequential simplification runs a BOUNDED number of passes, not a full
   fixpoint. The bound exists for the streaming trainer: pass k+1's
   greedy runs can absorb a state that pass k had already committed (the
   merged blob's widened attributes change the verdict), so each extra
   pass can reach one commit further back into the chain. An unbounded
   fixpoint therefore needs the whole chain retained to replay online —
   O(trace) memory — while a fixed bound is replayed exactly by a static
   cascade of [max_simplify_passes] greedy levels holding one open run
   each. Real workloads converge in 2–3 passes, so the bound is not a
   practical loss; [pass] is a no-op once a machine is fully simplified,
   making early convergence identical to running all passes. *)
let max_simplify_passes = 4

let simplify_traced ?(config = Merge.default) psm =
  Psm_obs.span "combine.simplify" @@ fun () ->
  let before = Psm.state_count psm in
  let result = compose_passes ~max_passes:max_simplify_passes (pass config) psm in
  Psm_obs.count "combine.simplify_merged" (before - Psm.state_count (fst result));
  result

let simplify ?config psm = fst (simplify_traced ?config psm)
