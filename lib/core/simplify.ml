(* One pass over the working machine: collect disjoint maximal runs of
   adjacent mergeable states and merge them; false when there is none.
   Degrees and chain links are slot-indexed arrays, so a pass is linear
   in states, transitions and intervals. The degrees count transitions
   without collapsing duplicates, which is exact: a run's members other
   than its last have one out-edge (the link), members other than its
   head one in-edge, so after a merge every kept edge leaves a run's last
   member or an unmerged state and enters a run's head or an unmerged
   state, and no two of them redirect onto one triple. *)
let pass config (w : Chain_table.t) =
  let n = w.Chain_table.n in
  let out_deg = Array.make n 0 and in_deg = Array.make n 0 in
  for e = 0 to w.edges - 1 do
    out_deg.(w.src.(e)) <- out_deg.(w.src.(e)) + 1;
    in_deg.(w.dst.(e)) <- in_deg.(w.dst.(e)) + 1
  done;
  (* unique_next.(s) = t when s -> t is a chain link, -1 otherwise. *)
  let unique_next = Array.make n (-1) in
  let has_unique_prev = Array.make n false in
  for e = 0 to w.edges - 1 do
    let src = w.src.(e) and dst = w.dst.(e) in
    if src <> dst && out_deg.(src) = 1 && in_deg.(dst) = 1 then begin
      unique_next.(src) <- dst;
      has_unique_prev.(dst) <- true
    end
  done;
  (* Walk each run head, greedily accumulating mergeable members. The
     run's ⟨μ, σ, n⟩ is folded with [merge_stats]; its members' interval
     lists are joined once, when the run closes. *)
  let clustered = Array.make n false in
  let clusters = ref [] in
  let try_run head =
    if not clustered.(head) then begin
      let rec extend members parts stats last =
        let next = unique_next.(last) in
        (* Chain links are injective, so the only state a run can reach
           twice is its head, when the run is a whole ring. *)
        if next < 0 || next = head || clustered.(next) then (members, parts, stats)
        else
          let attr = w.attrs.(next) in
          if Merge.mergeable config stats attr then
            extend (next :: members) (attr.Power_attr.intervals :: parts)
              (Power_attr.merge_stats stats attr) next
          else (members, parts, stats)
      in
      let first = w.attrs.(head) in
      match extend [ head ] [ first.Power_attr.intervals ] first head with
      | [ _ ], _, _ -> ()
      | rev_members, parts, stats ->
          List.iter (fun m -> clustered.(m) <- true) rev_members;
          let members = List.rev rev_members in
          let assertion = Assertion.seq (List.map (fun m -> w.assertions.(m)) members) in
          let attr = { stats with Power_attr.intervals = Power_attr.concat_rev parts } in
          clusters :=
            { Psm.members;
              new_assertion = assertion;
              new_attr = attr;
              new_components = [ (assertion, attr) ] }
            :: !clusters
    end
  in
  (* Heads: states that are not the unique-continuation of another state,
     visited in slot order for determinism; then any state reachable only
     mid-chain is picked up as runs are marked. *)
  for i = 0 to n - 1 do
    if not has_unique_prev.(i) then try_run i
  done;
  for i = 0 to n - 1 do
    try_run i
  done;
  match !clusters with
  | [] -> false
  | cs ->
      Chain_table.merge w ~drop_links:true cs;
      true

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

(* After every changed pass {!Chain_table.merge} puts the slots in
   canonical (training) order, whatever clusters the pass created. Pass
   behaviour that iterates in slot order — the run heads here, join's
   first-fit — therefore scans in chain order on every iteration, which
   is what lets the streaming trainer replay the passes one level at a
   time and land on the same machine. *)
let simplify_table ?(config = Merge.default) (w : Chain_table.t) =
  Psm_obs.span "combine.simplify" @@ fun () ->
  let before = w.Chain_table.n in
  let rec passes remaining = if remaining > 0 && pass config w then passes (remaining - 1) in
  passes max_simplify_passes;
  Psm_obs.count "combine.simplify_merged" (before - w.Chain_table.n)

let simplify_traced ?config psm =
  let w = Chain_table.of_psm psm in
  simplify_table ?config w;
  Chain_table.to_psm w

let simplify ?config psm = fst (simplify_traced ?config psm)
