module Psm = Psm_core.Psm
module Assertion = Psm_core.Assertion

type t = {
  psm : Psm.t;
  ids : int array; (* row -> state id *)
  rows : (int, int) Hashtbl.t; (* state id -> row *)
  a : float array array; (* mutable via ban *)
  a_original : float array array;
  b_by_prop : float array array; (* row -> prop id -> entry-observation mass *)
  b_full : float array array; (* row -> prop id -> emission probability *)
  pi : float array;
  observations : Assertion.t array;
}

let normalize_row row =
  Psm_obs.incr "hmm.rows_normalized";
  let total = Array.fold_left ( +. ) 0. row in
  if total > 0. then Array.iteri (fun i v -> row.(i) <- v /. total) row

let build ?transition_counts ?emission_counts psm =
  Psm_obs.span "hmm.build" @@ fun () ->
  let states = Psm.states psm in
  let ids = Array.of_list (List.map (fun (s : Psm.state) -> s.Psm.id) states) in
  let m = Array.length ids in
  if m = 0 then invalid_arg "Hmm.build: empty PSM set";
  let rows = Hashtbl.create m in
  Array.iteri (fun row id -> Hashtbl.replace rows id row) ids;
  let row id = Hashtbl.find rows id in
  let a = Array.make_matrix m m 0. in
  let structural_edge = Hashtbl.create 64 in
  List.iter
    (fun (tr : Psm.transition) ->
      Hashtbl.replace structural_edge (tr.Psm.src, tr.Psm.dst) ())
    (Psm.transitions psm);
  (match transition_counts with
  | Some counts ->
      (* Training-trace frequencies, restricted to edges that survived in
         the graph (simplify absorbs its internal edges). *)
      List.iter
        (fun ((src, dst), count) ->
          match (Hashtbl.find_opt rows src, Hashtbl.find_opt rows dst) with
          | Some i, Some j when Hashtbl.mem structural_edge (src, dst) ->
              a.(i).(j) <- a.(i).(j) +. count
          | _ -> ())
        counts
  | None ->
      (* Structural fallback: distinct transitions, guards counted
         separately. *)
      List.iter
        (fun (tr : Psm.transition) ->
          let i = row tr.Psm.src and j = row tr.Psm.dst in
          a.(i).(j) <- a.(i).(j) +. 1.)
        (Psm.transitions psm));
  (* Any edge present in the graph keeps a small floor probability so a
     zero-frequency path stays reachable for resynchronization. *)
  Hashtbl.iter
    (fun (src, dst) () ->
      let i = row src and j = row dst in
      if a.(i).(j) = 0. then a.(i).(j) <- 0.5)
    structural_edge;
  Array.iteri
    (fun i r ->
      let total = Array.fold_left ( +. ) 0. r in
      if total = 0. then r.(i) <- 1. (* absorbing: self-loop *)
      else normalize_row r)
    a;
  (* Observation alphabet: distinct component assertions. *)
  let module AMap = Map.Make (struct
    type t = Assertion.t

    let compare = Assertion.compare
  end) in
  let alphabet = ref AMap.empty in
  List.iter
    (fun (s : Psm.state) ->
      List.iter
        (fun (assertion, _) ->
          if not (AMap.mem assertion !alphabet) then
            alphabet := AMap.add assertion (AMap.cardinal !alphabet) !alphabet)
        s.Psm.components)
    states;
  let observations = Array.make (AMap.cardinal !alphabet) (Assertion.Until (0, 0)) in
  AMap.iter (fun assertion k -> observations.(k) <- assertion) !alphabet;
  (* B from component multiplicity, then projected onto entry propositions
     for proposition-level filtering. *)
  let nprops = Psm_mining.Prop_trace.Table.prop_count (Psm.prop_table psm) in
  let b_by_prop = Array.make_matrix m (max nprops 1) 0. in
  List.iteri
    (fun _ (s : Psm.state) ->
      let i = row s.Psm.id in
      let total = float_of_int (List.length s.Psm.components) in
      List.iter
        (fun (assertion, _) ->
          let entries = Assertion.entry_props assertion in
          let share = 1. /. (total *. float_of_int (List.length entries)) in
          List.iter
            (fun p -> if p < nprops then b_by_prop.(i).(p) <- b_by_prop.(i).(p) +. share)
            entries)
        s.Psm.components)
    states;
  (* Full emission matrix: training observation frequencies per state, or
     the entry projection as fallback. *)
  let b_full =
    match emission_counts with
    | None -> Array.map Array.copy b_by_prop
    | Some counts ->
        let b = Array.make_matrix m (max nprops 1) 0. in
        List.iter
          (fun ((state_id, prop), count) ->
            match Hashtbl.find_opt rows state_id with
            | Some i when prop >= 0 && prop < nprops -> b.(i).(prop) <- b.(i).(prop) +. count
            | Some _ | None -> ())
          counts;
        Array.iter normalize_row b;
        b
  in
  (* π from initial-state multiplicity. *)
  let pi = Array.make m 0. in
  List.iter (fun id -> pi.(row id) <- pi.(row id) +. 1.) (Psm.initial psm);
  if Array.for_all (fun v -> v = 0.) pi then Array.fill pi 0 m (1. /. float_of_int m)
  else normalize_row pi;
  { psm;
    ids;
    rows;
    a;
    a_original = Array.map Array.copy a;
    b_by_prop;
    b_full;
    pi;
    observations }

let psm t = t.psm
let state_count t = Array.length t.ids
let observation_count t = Array.length t.observations

let row_of_state t id =
  match Hashtbl.find_opt t.rows id with Some r -> r | None -> raise Not_found

let state_of_row t row = t.ids.(row)

let a t i j = t.a.(i).(j)
let a_row t i = Array.copy t.a.(i)
let trained_a_row t i = Array.copy t.a_original.(i)
let b_entry t i prop =
  if prop < 0 || prop >= Array.length t.b_by_prop.(i) then 0. else t.b_by_prop.(i).(prop)

let b_obs t i prop =
  if prop < 0 || prop >= Array.length t.b_full.(i) then 0. else t.b_full.(i).(prop)

let pi t = Array.copy t.pi
let initial_belief t = Array.copy t.pi

let predict t belief =
  let m = state_count t in
  if Array.length belief <> m then invalid_arg "Hmm.predict: belief size mismatch";
  let out = Array.make m 0. in
  Sparse.scatter_product (Sparse.of_dense t.a) belief out;
  normalize_row out;
  out

let ban_row row ~dst =
  row.(dst) <- 0.;
  let total = Array.fold_left ( +. ) 0. row in
  if total > 0. then normalize_row row
  else begin
    (* Every successor was banned: fall back to uniform over the others so
       filtering can still propose a jump. *)
    let m = Array.length row in
    for j = 0 to m - 1 do
      row.(j) <- (if j = dst then 0. else 1. /. float_of_int (max 1 (m - 1)))
    done
  end

let ban t ~src_row ~dst_row = ban_row t.a.(src_row) ~dst:dst_row

let unsafe_set_a t ~row ~col v = t.a.(row).(col) <- v

let reset_bans t =
  Array.iteri (fun i r -> Array.blit t.a_original.(i) 0 r 0 (Array.length r)) t.a

let pp fmt t =
  let m = state_count t in
  Format.fprintf fmt "@[<v>HMM over %d states, %d observations@," m
    (observation_count t);
  Format.fprintf fmt "pi = [%a]@,"
    (fun fmt -> Array.iter (fun v -> Format.fprintf fmt " %.3f" v))
    t.pi;
  for i = 0 to m - 1 do
    Format.fprintf fmt "A[s%d] =" (state_of_row t i);
    for j = 0 to m - 1 do
      Format.fprintf fmt " %.3f" t.a.(i).(j)
    done;
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
