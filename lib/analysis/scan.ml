module Psm = Psm_core.Psm
module Power_attr = Psm_core.Power_attr
module Power_trace = Psm_trace.Power_trace

(* The scan builds every per-state derivative the rules share once:
   per-state activation runs, the Welford rescan of each state's
   intervals (list order preserved, so results are bit-identical to
   [Power_attr.recompute]), and the per-trace interval claims the
   conservation walk consumes. One pass per (trace, power) pair in
   total, because states partition the training instants. Out-edges are
   not cached here: [Psm.successors] is already a range read of the
   ordered transition set. *)

type t = {
  activations : (int, (int * (int * int) list) list) Hashtbl.t;
  recomputed : (int, Power_attr.t) Hashtbl.t;
      (* states whose intervals are non-empty and all within the power
         traces — exactly the conservation rule's precondition *)
  claims : (int * int * int) list array;
      (* per power trace: sorted (start, stop, state id) of in-bounds
         intervals, all states pooled *)
  total_n : int; (* Σ states' attr.n *)
  instants_total : int; (* Σ power trace lengths *)
}

(* Per-trace maximal activations of one interval list: sorted and
   coalesced (a state merged by [simplify] holds member intervals that
   abut — the run is one activation). Overlapping (corrupt) intervals
   coalesce too; [attr-sanity] reports them. *)
let merge_sorted ivs =
  List.rev
    (List.fold_left
       (fun acc (start, stop) ->
         match acc with
         | (s0, e0) :: rest when start <= e0 + 1 -> (s0, max e0 stop) :: rest
         | _ -> (start, stop) :: acc)
       [] ivs)

(* Intervals already in (trace, start, stop) order — the shape the
   generator emits and merges preserve. *)
let rec sorted_by_trace_start = function
  | (a : Power_attr.interval) :: (b :: _ as rest) ->
      (a.Power_attr.trace < b.Power_attr.trace
      || (a.Power_attr.trace = b.Power_attr.trace
         && (a.Power_attr.start < b.Power_attr.start
            || (a.Power_attr.start = b.Power_attr.start
               && a.Power_attr.stop <= b.Power_attr.stop))))
      && sorted_by_trace_start rest
  | _ -> true

let activation_runs intervals =
  match intervals with
  | [] -> []
  | [ iv ] -> [ (iv.Power_attr.trace, [ (iv.Power_attr.start, iv.Power_attr.stop) ]) ]
  | _ when sorted_by_trace_start intervals ->
      (* Single-pass grouping: the interval list is itself the
         materialized run structure (most states' intervals arrive in
         canonical order), so the hashtable and the sorts disappear.
         Output is structurally identical to the general path. *)
      let rec split groups cur cur_ivs = function
        | [] -> List.rev ((cur, merge_sorted (List.rev cur_ivs)) :: groups)
        | (iv : Power_attr.interval) :: rest ->
            if iv.Power_attr.trace = cur then
              split groups cur ((iv.Power_attr.start, iv.Power_attr.stop) :: cur_ivs) rest
            else
              split
                ((cur, merge_sorted (List.rev cur_ivs)) :: groups)
                iv.Power_attr.trace
                [ (iv.Power_attr.start, iv.Power_attr.stop) ]
                rest
      in
      (match intervals with
      | iv :: rest ->
          split [] iv.Power_attr.trace [ (iv.Power_attr.start, iv.Power_attr.stop) ] rest
      | [] -> [])
  | _ ->
      let by_trace = Hashtbl.create 4 in
      List.iter
        (fun (iv : Power_attr.interval) ->
          Hashtbl.replace by_trace iv.Power_attr.trace
            ((iv.Power_attr.start, iv.Power_attr.stop)
            :: Option.value ~default:[] (Hashtbl.find_opt by_trace iv.Power_attr.trace)))
        intervals;
      Hashtbl.fold
        (fun trace ivs acc -> (trace, merge_sorted (List.sort compare ivs)) :: acc)
        by_trace []
      |> List.sort compare

let create ?powers psm =
  Psm_obs.span "analyze.scan" @@ fun () ->
  let states = Psm.states psm in
  let activations = Hashtbl.create 64 in
  List.iter
    (fun (s : Psm.state) ->
      Hashtbl.replace activations s.Psm.id
        (activation_runs s.Psm.attr.Power_attr.intervals))
    states;
  let recomputed = Hashtbl.create 64 in
  let total_n =
    List.fold_left (fun acc (s : Psm.state) -> acc + s.Psm.attr.Power_attr.n) 0 states
  in
  let claims, instants_total =
    match powers with
    | None -> ([||], 0)
    | Some powers ->
        let in_bounds (iv : Power_attr.interval) =
          iv.Power_attr.trace >= 0
          && iv.Power_attr.trace < Array.length powers
          && iv.Power_attr.start >= 0
          && iv.Power_attr.stop >= iv.Power_attr.start
          && iv.Power_attr.stop < Power_trace.length powers.(iv.Power_attr.trace)
        in
        let claims = Array.make (Array.length powers) [] in
        List.iter
          (fun (s : Psm.state) ->
            let a = s.Psm.attr in
            if a.Power_attr.intervals <> [] && List.for_all in_bounds a.Power_attr.intervals
            then Hashtbl.replace recomputed s.Psm.id (Power_attr.recompute powers a);
            List.iter
              (fun (iv : Power_attr.interval) ->
                if in_bounds iv then
                  claims.(iv.Power_attr.trace) <-
                    (iv.Power_attr.start, iv.Power_attr.stop, s.Psm.id)
                    :: claims.(iv.Power_attr.trace))
              a.Power_attr.intervals)
          states;
        ( Array.map (List.sort compare) claims,
          Array.fold_left (fun acc p -> acc + Power_trace.length p) 0 powers )
  in
  { activations; recomputed; claims; total_n; instants_total }

let activations t id = Option.value ~default:[] (Hashtbl.find_opt t.activations id)
let recomputed_attr t id = Hashtbl.find_opt t.recomputed id
let claims t ~trace = if trace < Array.length t.claims then t.claims.(trace) else []
let total_n t = t.total_n
let instants_total t = t.instants_total
