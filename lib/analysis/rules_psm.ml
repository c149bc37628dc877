module Psm = Psm_core.Psm
module Power_attr = Psm_core.Power_attr
module Table = Psm_mining.Prop_trace.Table
module Prop_trace = Psm_mining.Prop_trace
module Power_trace = Psm_trace.Power_trace
module Vocabulary = Psm_mining.Vocabulary

let v = Finding.v

(* ---------- determinism ---------- *)

let check_determinism (ctx : Rule.context) =
  let psm = ctx.Rule.psm in
  let table = Psm.prop_table psm in
  let nprops = Table.prop_count table in
  let findings = ref [] in
  let emit x = findings := x :: !findings in
  List.iter
    (fun (s : Psm.state) ->
      let out = Psm.successors psm s.Psm.id in
      List.iter
        (fun (tr : Psm.transition) ->
          if tr.Psm.guard < 0 || tr.Psm.guard >= nprops then
            emit
              (v ~rule:"determinism" ~severity:Finding.Error
                 ~location:
                   (Finding.Transition
                      { src = tr.Psm.src; guard = tr.Psm.guard; dst = tr.Psm.dst })
                 (Printf.sprintf
                    "guard %s is not an interned proposition (table holds %d)"
                    (Rule.prop_name ctx tr.Psm.guard)
                    nprops)))
        out;
      (* Same guard enabling several transitions: nondeterministic, but by
         design after [join] — the HMM resolves the choice (paper Sec. V). *)
      let by_guard = Hashtbl.create 8 in
      List.iter
        (fun (tr : Psm.transition) ->
          Hashtbl.replace by_guard tr.Psm.guard
            (tr.Psm.dst :: Option.value ~default:[] (Hashtbl.find_opt by_guard tr.Psm.guard)))
        out;
      Hashtbl.iter
        (fun guard dsts ->
          let dsts = List.sort_uniq compare dsts in
          if List.length dsts > 1 then
            emit
              (v ~rule:"determinism" ~severity:Finding.Warning
                 ~location:(Finding.State s.Psm.id)
                 (Printf.sprintf
                    "nondeterministic fan-out: %s enables transitions to %s \
                     (resolved stochastically by the HMM)"
                    (Rule.prop_describe ctx guard)
                    (String.concat ", "
                       (List.map (fun d -> Printf.sprintf "s%d" d) dsts)))))
        by_guard;
      (* Distinct guard ids whose packed truth rows coincide would be
         simultaneously satisfiable — impossible through [classify_or_add]
         interning, so finding one means the table itself is corrupt. *)
      let in_range =
        List.sort_uniq compare (List.map (fun (tr : Psm.transition) -> tr.Psm.guard) out)
        |> List.filter (fun g -> g >= 0 && g < nprops)
      in
      let keyed = List.map (fun g -> (g, Vocabulary.row_key (Table.row table g))) in_range in
      let rec pairs = function
        | [] -> ()
        | (g1, k1) :: rest ->
            List.iter
              (fun (g2, k2) ->
                if String.equal k1 k2 then
                  emit
                    (v ~rule:"determinism" ~severity:Finding.Error
                       ~location:(Finding.State s.Psm.id)
                       (Printf.sprintf
                          "guards %s and %s have identical truth rows: both are \
                           satisfied by the same samples"
                          (Rule.prop_name ctx g1) (Rule.prop_name ctx g2))))
              rest;
            pairs rest
      in
      pairs keyed)
    (Psm.states psm);
  List.rev !findings

(* ---------- reachability ---------- *)

let check_reachability (ctx : Rule.context) =
  let psm = ctx.Rule.psm in
  let states = Psm.states psm in
  if states = [] then []
  else
    let initial = Psm.initial psm in
    if initial = [] then
      [ v ~rule:"reachability" ~severity:Finding.Error ~location:Finding.Model
          "S₀ is empty: no state is reachable and the HMM's π is uniform noise" ]
    else begin
      let visited = Hashtbl.create 64 in
      let rec visit id =
        if not (Hashtbl.mem visited id) then begin
          Hashtbl.replace visited id ();
          List.iter (fun (tr : Psm.transition) -> visit tr.Psm.dst) (Psm.successors psm id)
        end
      in
      List.iter visit initial;
      List.concat_map
        (fun (s : Psm.state) ->
          let unreachable =
            if Hashtbl.mem visited s.Psm.id then []
            else
              [ v ~rule:"reachability" ~severity:Finding.Warning
                  ~location:(Finding.State s.Psm.id)
                  "unreachable from every initial state" ]
          in
          let sink =
            if Psm.successors psm s.Psm.id <> [] then []
            else
              [ v ~rule:"reachability" ~severity:Finding.Info
                  ~location:(Finding.State s.Psm.id)
                  "sink state without outgoing transitions (the HMM treats it \
                   as absorbing via a self-loop)" ]
          in
          unreachable @ sink)
        states
    end

(* ---------- stall / input-completeness ---------- *)

(* Activation runs come precomputed from the scan ({!Scan.activations});
   the rule only replays each run's exit instant against Γ. *)
let check_stall (ctx : Rule.context) =
  match ctx.Rule.gammas with
  | None -> []
  | Some gammas ->
      let psm = ctx.Rule.psm in
      List.concat_map
        (fun (s : Psm.state) ->
          let guards =
            List.map (fun (tr : Psm.transition) -> tr.Psm.guard)
              (Psm.successors psm s.Psm.id)
          in
          List.concat_map
            (fun (trace, runs) ->
              if trace < 0 || trace >= Array.length gammas then []
              else
                let gamma = gammas.(trace) in
                let len = Prop_trace.length gamma in
                List.filter_map
                  (fun (_, stop) ->
                    if stop < 0 || stop + 1 >= len then None
                    else
                      let p = Prop_trace.prop_at gamma (stop + 1) in
                      if List.mem p guards then None
                      else
                        Some
                          (v ~rule:"stall" ~severity:Finding.Error
                             ~location:(Finding.State s.Psm.id)
                             (Printf.sprintf
                                "stalls after trace %d instant %d: the training \
                                 run continues with %s but no outgoing guard \
                                 covers it"
                                trace stop (Rule.prop_describe ctx p))))
                  runs)
            (Scan.activations ctx.Rule.scan s.Psm.id))
        (Psm.states psm)

(* ---------- power-attribute sanity ---------- *)

let trace_length (ctx : Rule.context) trace =
  match (ctx.Rule.powers, ctx.Rule.gammas) with
  | Some powers, _ when trace >= 0 && trace < Array.length powers ->
      Some (Power_trace.length powers.(trace))
  | _, Some gammas when trace >= 0 && trace < Array.length gammas ->
      Some (Prop_trace.length gammas.(trace))
  | Some _, _ | _, Some _ -> Some (-1) (* traces known, index out of range *)
  | None, None -> None

(* [component] is the index of the provenance component checked, [None]
   for the state's own attributes; its name is spelled out only in a
   finding. *)
let check_one_attr (ctx : Rule.context) ~location ?component (a : Power_attr.t) =
  let what () =
    match component with None -> "attributes" | Some k -> Printf.sprintf "component %d" k
  in
  let findings = ref [] in
  let emit severity msg = findings := v ~rule:"attr-sanity" ~severity ~location msg :: !findings in
  let not_finite x = Float.is_nan x || x = Float.infinity || x = Float.neg_infinity in
  if not_finite a.Power_attr.mu then
    emit Finding.Error (Printf.sprintf "%s: μ = %g is not finite" (what ()) a.Power_attr.mu)
  else if a.Power_attr.mu < 0. then
    emit Finding.Warning
      (Printf.sprintf "%s: μ = %g is negative (energy per instant should be ≥ 0)" (what ())
         a.Power_attr.mu);
  if not_finite a.Power_attr.sigma then
    emit Finding.Error (Printf.sprintf "%s: σ = %g is not finite" (what ()) a.Power_attr.sigma)
  else if a.Power_attr.sigma < 0. then
    emit Finding.Error (Printf.sprintf "%s: σ = %g is negative" (what ()) a.Power_attr.sigma);
  if a.Power_attr.n < 1 then
    emit Finding.Error
      (Printf.sprintf "%s: n = %d (every state covers ≥ 1 instant)" (what ()) a.Power_attr.n);
  (* Interval well-formedness; [intervals = []] is legitimate for
     persisted component attributes, which drop their provenance. *)
  if a.Power_attr.intervals <> [] then begin
    List.iter
      (fun (iv : Power_attr.interval) ->
        if iv.Power_attr.trace < 0 then
          emit Finding.Error
            (Printf.sprintf "%s: interval names negative trace %d" (what ()) iv.Power_attr.trace);
        if iv.Power_attr.start < 0 || iv.Power_attr.stop < iv.Power_attr.start then
          emit Finding.Error
            (Printf.sprintf "%s: malformed interval [%d..%d]" (what ()) iv.Power_attr.start
               iv.Power_attr.stop);
        match trace_length ctx iv.Power_attr.trace with
        | Some len when len >= 0 && iv.Power_attr.stop >= len ->
            emit Finding.Error
              (Printf.sprintf "%s: interval [%d..%d] exceeds trace %d (length %d)" (what ())
                 iv.Power_attr.start iv.Power_attr.stop iv.Power_attr.trace len)
        | Some len when len < 0 ->
            emit Finding.Error
              (Printf.sprintf "%s: interval names unknown trace %d" (what ())
                 iv.Power_attr.trace)
        | Some _ | None -> ())
      a.Power_attr.intervals;
    (* Per-trace overlap; one interval cannot overlap. *)
    if List.compare_length_with a.Power_attr.intervals 2 >= 0 then begin
      let by_trace = Hashtbl.create 4 in
      List.iter
        (fun (iv : Power_attr.interval) ->
          Hashtbl.replace by_trace iv.Power_attr.trace
            ((iv.Power_attr.start, iv.Power_attr.stop)
            :: Option.value ~default:[] (Hashtbl.find_opt by_trace iv.Power_attr.trace)))
        a.Power_attr.intervals;
      Hashtbl.iter
        (fun trace ivs ->
          let sorted = List.sort compare ivs in
          ignore
            (List.fold_left
               (fun prev (start, stop) ->
                 (match prev with
                 | Some (_, pstop) when start <= pstop ->
                     emit Finding.Error
                       (Printf.sprintf "%s: intervals overlap at trace %d instant %d" (what ())
                          trace start)
                 | Some _ | None -> ());
                 Some (start, stop))
               None sorted))
        by_trace
    end;
    let covered =
      List.fold_left
        (fun acc (iv : Power_attr.interval) ->
          acc + max 0 (iv.Power_attr.stop - iv.Power_attr.start + 1))
        0 a.Power_attr.intervals
    in
    if covered <> a.Power_attr.n then
      emit Finding.Error
        (Printf.sprintf "%s: intervals cover %d instants but n = %d" (what ()) covered
           a.Power_attr.n)
  end;
  List.rev !findings

let check_attr_sanity (ctx : Rule.context) =
  List.concat_map
    (fun (s : Psm.state) ->
      let location = Finding.State s.Psm.id in
      let own = check_one_attr ctx ~location s.Psm.attr in
      let comps =
        if s.Psm.components = [] then
          [ v ~rule:"attr-sanity" ~severity:Finding.Warning ~location
              "no provenance components: the HMM's B row for this state is empty" ]
        else
          List.concat
            (List.mapi
               (fun k (_, attr) ->
                 check_one_attr ctx ~location ~component:k attr)
               s.Psm.components)
      in
      own @ comps)
    (Psm.states ctx.Rule.psm)

(* ---------- merge conservation ---------- *)

let close ~eps ~scale a b =
  a = b || abs_float (a -. b) <= eps *. Float.max scale (Float.max (abs_float a) (abs_float b))

let check_conservation (ctx : Rule.context) =
  match ctx.Rule.powers with
  | None -> []
  | Some powers ->
      let psm = ctx.Rule.psm in
      let scan = ctx.Rule.scan in
      let eps = ctx.Rule.epsilon in
      let findings = ref [] in
      let emit x = findings := x :: !findings in
      List.iter
        (fun (s : Psm.state) ->
          let a = s.Psm.attr in
          (* [Scan.recomputed_attr] is present exactly when the intervals
             are non-empty and all in bounds, and holds the same
             list-order Welford rescan [Power_attr.recompute] produces. *)
          match Scan.recomputed_attr scan s.Psm.id with
          | None -> ()
          | Some r ->
            let location = Finding.State s.Psm.id in
            if r.Power_attr.n <> a.Power_attr.n then
              emit
                (v ~rule:"conservation" ~severity:Finding.Error ~location
                   (Printf.sprintf "n = %d but the intervals hold %d instants"
                      a.Power_attr.n r.Power_attr.n));
            if not (close ~eps ~scale:0. a.Power_attr.mu r.Power_attr.mu) then
              emit
                (v ~rule:"conservation" ~severity:Finding.Error ~location
                   (Printf.sprintf
                      "μ = %.17g but rescanning the intervals gives %.17g"
                      a.Power_attr.mu r.Power_attr.mu));
            (* σ noise from the Chan combination is relative to μ's scale,
               so tolerate eps·μ even when both σ are ~0. *)
            if
              not
                (close ~eps
                   ~scale:(abs_float a.Power_attr.mu)
                   a.Power_attr.sigma r.Power_attr.sigma)
            then
              emit
                (v ~rule:"conservation" ~severity:Finding.Error ~location
                   (Printf.sprintf
                      "σ = %.17g but rescanning the intervals gives %.17g"
                      a.Power_attr.sigma r.Power_attr.sigma)))
        (Psm.states psm);
      (* Every training instant belongs to exactly one state: walk the
         per-trace union of all states' intervals (pooled and sorted by
         the scan). *)
      Array.iteri
        (fun trace power ->
          let len = Power_trace.length power in
          let ivs = Scan.claims scan ~trace in
          let report_gap a b =
            emit
              (v ~rule:"conservation" ~severity:Finding.Error ~location:Finding.Model
                 (Printf.sprintf "trace %d instants [%d..%d] belong to no state" trace a b))
          in
          let last =
            List.fold_left
              (fun expected (start, stop, state) ->
                if start > expected then report_gap expected (start - 1)
                else if start < expected then
                  emit
                    (v ~rule:"conservation" ~severity:Finding.Error
                       ~location:(Finding.State state)
                       (Printf.sprintf
                          "trace %d instant %d is claimed by more than one state" trace
                          start));
                max expected (stop + 1))
              0 ivs
          in
          if last < len then report_gap last (len - 1))
        powers;
      if Scan.total_n scan <> Scan.instants_total scan then
        emit
          (v ~rule:"conservation" ~severity:Finding.Error ~location:Finding.Model
             (Printf.sprintf
                "total n across states is %d but the training traces hold %d instants"
                (Scan.total_n scan) (Scan.instants_total scan)));
      List.rev !findings

let rules =
  [ { Rule.name = "determinism";
      description =
        "guards out of one state must not be simultaneously satisfiable; \
         same-guard fan-out is flagged as HMM-resolved nondeterminism";
      check = check_determinism };
    { Rule.name = "reachability";
      description = "every state is reachable from S₀; sinks are reported";
      check = check_reachability };
    { Rule.name = "stall";
      description =
        "input-completeness against the training Γ: every proposition that \
         follows a state's activation is covered by an outgoing guard";
      check = check_stall };
    { Rule.name = "attr-sanity";
      description = "σ ≥ 0, n ≥ 1, finite μ, well-formed disjoint intervals summing to n";
      check = check_attr_sanity };
    { Rule.name = "conservation";
      description =
        "pooled ⟨μ, σ, n⟩ equals a rescan of the reference power traces; every \
         training instant is covered exactly once";
      check = check_conservation } ]
