(* Reference for the combine stage (paper Sec. IV: simplify, join,
   optimize). The library runs simplify's and join's passes over the flat
   tables of [Chain_table] and builds the machine once per call, folds
   ⟨μ, σ, n⟩ with [Power_attr.merge_stats] and joins each cluster's
   interval lists once, and fills the regression samples into float
   arrays. This module keeps the straightforward versions they replaced —
   hash tables rebuilt every pass, [Psm.merge_clusters] and then its own
   canonical [renumber] after every changed pass, [Power_attr.merge]
   (with its interval append) at every absorption, boxed sample lists, a
   per-instant Hamming series and the t-test-first [mergeable] — and
   test_combine pins the library against it exactly: machines, ids,
   floats by bits, redirect maps and optimize reports.

   Only [Psm]'s public constructors and its surgery primitive
   [merge_clusters] are used here; the library's passes no longer call
   [merge_clusters]. One change from the old simplify pass is deliberate:
   a run stops when it comes back to its head. Without that, a component
   that is one ring of mergeable states made the pass loop forever, in
   the library as here. The ring's closing edge then survives as the
   merged state's self-loop: under [`Drop], [merge_clusters] absorbs only
   the links between consecutive members. *)

module Power_trace = Psm_trace.Power_trace
module Functional_trace = Psm_trace.Functional_trace
module Interface = Psm_trace.Interface
module Regression = Psm_stats.Regression
module Assertion = Psm_core.Assertion
module Power_attr = Psm_core.Power_attr
module Psm = Psm_core.Psm
module Merge = Psm_core.Merge
module Optimize = Psm_core.Optimize

(* Chan combination with the interval lists appended. *)
let merge (a : Power_attr.t) (b : Power_attr.t) =
  let na = float_of_int a.n and nb = float_of_int b.n in
  let n = a.n + b.n in
  let nf = na +. nb in
  let mu = ((a.mu *. na) +. (b.mu *. nb)) /. nf in
  let m2 (a' : Power_attr.t) = a'.sigma *. a'.sigma *. float_of_int (max (a'.n - 1) 0) in
  let delta = b.mu -. a.mu in
  let m2_total = m2 a +. m2 b +. (delta *. delta *. na *. nb /. nf) in
  let sigma = if n < 2 then 0. else sqrt (m2_total /. (nf -. 1.)) in
  { Power_attr.mu; sigma; n; intervals = a.intervals @ b.intervals }

(* The mergeability predicate as it was before practical equivalence
   was tested first: the t-test verdict, then the ε override. Only
   [epsilon] is checked up front; an invalid [alpha] raises only when a
   t-test runs. *)
let mergeable (config : Merge.config) (a : Power_attr.t) (b : Power_attr.t) =
  let module Ttest = Psm_stats.Ttest in
  let close_means mu1 mu2 =
    let scale = Float.max (abs_float mu1) (abs_float mu2) in
    if scale = 0. then true else abs_float (mu1 -. mu2) < config.epsilon *. scale
  in
  if config.epsilon <= 0. then invalid_arg "Merge: epsilon must be positive";
  let small x = x.Power_attr.n < config.min_n_for_test in
  let by_test =
    match Merge.case_of a b with
    | Merge.Case1_next_next -> close_means a.mu b.mu
    | Merge.Case2_until_until ->
        if small a || small b then close_means a.mu b.mu
        else
          Ttest.equal_means ~alpha:config.alpha
            (Ttest.welch ~mean1:a.mu ~stddev1:a.sigma ~n1:a.n ~mean2:b.mu
               ~stddev2:b.sigma ~n2:b.n)
    | Merge.Case3_until_next ->
        let pop, single = if a.n > 1 then (a, b) else (b, a) in
        if small pop then close_means a.mu b.mu
        else
          Ttest.equal_means ~alpha:config.alpha
            (Ttest.one_sample ~mean:pop.mu ~stddev:pop.sigma ~n:pop.n ~value:single.mu)
  in
  by_test || (config.practical_equivalence && close_means a.mu b.mu)

(* Canonical renumbering, rebuilt through the public constructors:
   states sorted by (trace, start, old id) of their first interval. *)
let renumber psm =
  let first_interval (s : Psm.state) =
    match s.Psm.attr.Power_attr.intervals with
    | { Power_attr.trace; start; _ } :: _ -> (trace, start, s.Psm.id)
    | [] -> (max_int, max_int, s.Psm.id)
  in
  let ordered =
    List.sort (fun a b -> compare (first_interval a) (first_interval b)) (Psm.states psm)
  in
  let map = Hashtbl.create 64 in
  List.iteri (fun i (s : Psm.state) -> Hashtbl.replace map s.Psm.id i) ordered;
  let renum id =
    match Hashtbl.find_opt map id with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Psm.renumber: unknown state %d" id)
  in
  let fresh =
    List.fold_left
      (fun acc (s : Psm.state) ->
        fst
          (Psm.add_state_full acc s.Psm.assertion s.Psm.attr ~output:s.Psm.output
             ~components:s.Psm.components))
      (Psm.empty (Psm.prop_table psm))
      ordered
  in
  let fresh =
    List.fold_left
      (fun acc (tr : Psm.transition) ->
        Psm.add_transition acc ~src:(renum tr.Psm.src) ~guard:tr.Psm.guard ~dst:(renum tr.Psm.dst))
      fresh (Psm.transitions psm)
  in
  let fresh = List.fold_left (fun acc i -> Psm.add_initial acc (renum i)) fresh (Psm.initial psm) in
  (fresh, renum)

let simplify_pass config psm =
  let out_deg = Hashtbl.create 64 and in_deg = Hashtbl.create 64 in
  let bump table k = Hashtbl.replace table k (1 + Option.value ~default:0 (Hashtbl.find_opt table k)) in
  List.iter
    (fun (tr : Psm.transition) ->
      bump out_deg tr.src;
      bump in_deg tr.dst)
    (Psm.transitions psm);
  let degree table k = Option.value ~default:0 (Hashtbl.find_opt table k) in
  let unique_next = Hashtbl.create 64 in
  List.iter
    (fun (tr : Psm.transition) ->
      if tr.src <> tr.dst && degree out_deg tr.src = 1 && degree in_deg tr.dst = 1 then
        Hashtbl.replace unique_next tr.src tr.dst)
    (Psm.transitions psm);
  let has_unique_prev = Hashtbl.create 64 in
  Hashtbl.iter (fun _ dst -> Hashtbl.replace has_unique_prev dst ()) unique_next;
  let clustered = Hashtbl.create 64 in
  let clusters = ref [] in
  let try_run head =
    if not (Hashtbl.mem clustered head) then begin
      let rec extend members attr last =
        match Hashtbl.find_opt unique_next last with
        | Some next
          when next <> head
               && (not (Hashtbl.mem clustered next))
               && Merge.mergeable config attr (Psm.state psm next).Psm.attr ->
            extend (next :: members) (merge attr (Psm.state psm next).Psm.attr) next
        | Some _ | None -> (List.rev members, attr)
      in
      let members, attr = extend [ head ] (Psm.state psm head).Psm.attr head in
      if List.length members >= 2 then begin
        List.iter (fun m -> Hashtbl.replace clustered m ()) members;
        let member_states = List.map (Psm.state psm) members in
        let assertion =
          Assertion.seq (List.map (fun (s : Psm.state) -> s.Psm.assertion) member_states)
        in
        clusters :=
          { Psm.members; new_assertion = assertion; new_attr = attr;
            new_components = [ (assertion, attr) ] }
          :: !clusters
      end
    end
  in
  List.iter
    (fun (s : Psm.state) ->
      if not (Hashtbl.mem has_unique_prev s.Psm.id) then try_run s.Psm.id)
    (Psm.states psm);
  List.iter (fun (s : Psm.state) -> try_run s.Psm.id) (Psm.states psm);
  match !clusters with
  | [] -> (psm, [], false)
  | cs ->
      let psm', mapping = Psm.merge_clusters psm ~internal_edges:`Drop cs in
      (psm', mapping, true)

type cluster_acc = {
  mutable members : int list;
  mutable attr : Power_attr.t;
  mutable components : (Assertion.t * Power_attr.t) list;
}

let join_pass config psm =
  let clusters : cluster_acc list ref = ref [] in
  List.iter
    (fun (s : Psm.state) ->
      let rec place = function
        | [] ->
            clusters :=
              !clusters
              @ [ { members = [ s.Psm.id ];
                    attr = s.Psm.attr;
                    components = List.rev s.Psm.components } ]
        | c :: rest ->
            if Merge.mergeable config c.attr s.Psm.attr then begin
              c.members <- s.Psm.id :: c.members;
              c.attr <- merge c.attr s.Psm.attr;
              c.components <- List.rev_append s.Psm.components c.components
            end
            else place rest
      in
      place !clusters)
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
                new_attr = c.attr;
                new_components = components })
      !clusters
  in
  match real_clusters with
  | [] -> (psm, [], false)
  | cs ->
      let psm', mapping = Psm.merge_clusters psm ~internal_edges:`Self_loop cs in
      (psm', mapping, true)

let compose_passes ?(max_passes = max_int) pass_fn psm =
  let total = Hashtbl.create 64 in
  List.iter (fun (s : Psm.state) -> Hashtbl.replace total s.Psm.id s.Psm.id) (Psm.states psm);
  let rec fixpoint remaining psm =
    if remaining <= 0 then psm
    else
      let psm', mapping, changed = pass_fn psm in
      if not changed then psm'
      else begin
        let merged = Hashtbl.create 16 in
        List.iter (fun (m, id) -> Hashtbl.replace merged m id) mapping;
        let psm'', renum = renumber psm' in
        let bindings = Hashtbl.fold (fun o cur acc -> (o, cur) :: acc) total [] in
        List.iter
          (fun (o, cur) ->
            let mid = Option.value ~default:cur (Hashtbl.find_opt merged cur) in
            Hashtbl.replace total o (renum mid))
          bindings;
        fixpoint (remaining - 1) psm''
      end
  in
  let final = fixpoint max_passes psm in
  let resolve id = Option.value ~default:id (Hashtbl.find_opt total id) in
  (final, resolve)

let simplify_traced ?(config = Merge.default) psm =
  compose_passes ~max_passes:Psm_core.Simplify.max_simplify_passes (simplify_pass config) psm

let join_traced ?(config = Merge.default) psm = compose_passes (join_pass config) psm

let input_hamming_series trace =
  let input_idx = List.map fst (Interface.inputs (Functional_trace.interface trace)) in
  let n = Functional_trace.length trace in
  let series = Array.make (max n 0) 0. in
  for time = 1 to n - 1 do
    series.(time) <-
      float_of_int
        (Functional_trace.input_hamming input_idx
           (Functional_trace.sample trace ~time)
           (Functional_trace.sample trace ~time:(time - 1)))
  done;
  series

let samples_of_state hamming_series powers (attr : Power_attr.t) =
  let xs = ref [] and ys = ref [] in
  List.iter
    (fun { Power_attr.trace; start; stop } ->
      let hd : float array = hamming_series.(trace) in
      let p = powers.(trace) in
      for i = start to stop do
        xs := hd.(i) :: !xs;
        ys := Power_trace.get p i :: !ys
      done)
    attr.Power_attr.intervals;
  (Array.of_list !xs, Array.of_list !ys)

let optimize ?(config = Optimize.default) ~traces ~powers psm =
  let hamming_series = Array.map input_hamming_series traces in
  let consider (psm, reports) (s : Psm.state) =
    let rel = Power_attr.relative_sigma s.Psm.attr in
    if rel <= config.Optimize.sigma_threshold || s.Psm.attr.Power_attr.n < 3 then (psm, reports)
    else begin
      let xs, ys = samples_of_state hamming_series powers s.Psm.attr in
      let r = Regression.pearson xs ys in
      let upgraded = abs_float r >= config.Optimize.correlation_threshold in
      let psm =
        if upgraded then
          let fit = Regression.fit ~x:xs ~y:ys in
          Psm.set_output psm s.Psm.id
            (Psm.Affine { slope = fit.Regression.slope; intercept = fit.Regression.intercept })
        else psm
      in
      (psm, { Optimize.state_id = s.Psm.id; relative_sigma = rel; correlation = r; upgraded } :: reports)
    end
  in
  let psm, reports = List.fold_left consider (psm, []) (Psm.states psm) in
  (psm, List.rev reports)
