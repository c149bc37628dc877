(* A first-fit cluster. [attr] carries the running ⟨μ, σ, n⟩ only
   ([Power_attr.merge_stats]); the members' interval lists wait in
   [parts] and are joined once, when the pass closes the cluster. *)
type cluster_acc = {
  mutable members : int list; (* reverse order *)
  mutable attr : Power_attr.t;
  mutable parts : Power_attr.interval list list; (* reverse order *)
  mutable components : (Assertion.t * Power_attr.t) list; (* reverse order *)
}

let pass config psm =
  let clusters = Queue.create () in
  List.iter
    (fun (s : Psm.state) ->
      match
        Seq.find (fun c -> Merge.mergeable config c.attr s.Psm.attr) (Queue.to_seq clusters)
      with
      | Some c ->
          c.members <- s.Psm.id :: c.members;
          c.attr <- Power_attr.merge_stats c.attr s.Psm.attr;
          c.parts <- s.Psm.attr.Power_attr.intervals :: c.parts;
          c.components <- List.rev_append s.Psm.components c.components
      | None ->
          Queue.add
            { members = [ s.Psm.id ];
              attr = s.Psm.attr;
              parts = [ s.Psm.attr.Power_attr.intervals ];
              components = List.rev s.Psm.components }
            clusters)
    (Psm.states psm);
  let real_clusters =
    List.filter_map
      (fun c ->
        match c.members with
        | [] | [ _ ] -> None
        | members ->
            let components = List.rev c.components in
            let assertion = Assertion.alt (List.map fst components) in
            Some
              { Psm.members = List.rev members;
                new_assertion = assertion;
                new_attr = { c.attr with Power_attr.intervals = Power_attr.concat_rev c.parts };
                new_components = components })
      (List.of_seq (Queue.to_seq clusters))
  in
  match real_clusters with
  | [] -> (psm, [], false)
  | cs ->
      let psm', mapping = Psm.merge_clusters psm ~internal_edges:`Self_loop cs in
      (psm', mapping, true)

let join_traced ?(config = Merge.default) psm =
  Psm_obs.span "combine.join" @@ fun () ->
  let before = Psm.state_count psm in
  let result = Simplify.compose_passes (pass config) psm in
  Psm_obs.count "combine.join_merged" (before - Psm.state_count (fst result));
  result

let join ?config psm = fst (join_traced ?config psm)
