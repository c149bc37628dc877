(* A first-fit cluster. [attr] carries the running ⟨μ, σ, n⟩ only
   ([Power_attr.merge_stats]); the members' interval lists wait in
   [parts] and are joined once, when the pass closes the cluster. *)
type cluster_acc = {
  mutable members : int list; (* reverse order *)
  mutable attr : Power_attr.t;
  mutable parts : Power_attr.interval list list; (* reverse order *)
  mutable components : (Assertion.t * Power_attr.t) list; (* reverse order *)
}

(* One pass over the working machine's slots; false when no two states
   merge. Open clusters sit in creation order in a growable array. *)
let pass config (w : Chain_table.t) =
  let open_ = ref [||] and count = ref 0 in
  for i = 0 to w.Chain_table.n - 1 do
    let attr = w.attrs.(i) in
    let rec first_fit k =
      if k = !count then -1
      else if Merge.mergeable config !open_.(k).attr attr then k
      else first_fit (k + 1)
    in
    let k = first_fit 0 in
    if k >= 0 then begin
      let c = !open_.(k) in
      c.members <- i :: c.members;
      c.attr <- Power_attr.merge_stats c.attr attr;
      c.parts <- attr.Power_attr.intervals :: c.parts;
      c.components <- List.rev_append w.components.(i) c.components
    end
    else begin
      let c =
        { members = [ i ];
          attr;
          parts = [ attr.Power_attr.intervals ];
          components = List.rev w.components.(i) }
      in
      if !count = Array.length !open_ then
        open_ := Array.append !open_ (Array.make (max 8 !count) c);
      !open_.(!count) <- c;
      incr count
    end
  done;
  let clusters = ref [] in
  for k = !count - 1 downto 0 do
    let c = !open_.(k) in
    match c.members with
    | [] | [ _ ] -> ()
    | members ->
        let components = List.rev c.components in
        clusters :=
          { Psm.members = List.rev members;
            new_assertion = Assertion.alt (List.map fst components);
            new_attr = { c.attr with Power_attr.intervals = Power_attr.concat_rev c.parts };
            new_components = components }
          :: !clusters
  done;
  match !clusters with
  | [] -> false
  | cs ->
      Chain_table.merge w ~drop_links:false cs;
      true

let join_table ?(config = Merge.default) (w : Chain_table.t) =
  Psm_obs.span "combine.join" @@ fun () ->
  let before = w.Chain_table.n in
  let rec fixpoint () = if pass config w then fixpoint () in
  fixpoint ();
  Psm_obs.count "combine.join_merged" (before - w.Chain_table.n)

let join_traced ?config psm =
  let w = Chain_table.of_psm psm in
  join_table ?config w;
  Chain_table.to_psm w

let join ?config psm = fst (join_traced ?config psm)
