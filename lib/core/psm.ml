module IntMap = Map.Make (Int)

module TransSet = Set.Make (struct
  type t = int * int * int

  (* Lexicographic, the order polymorphic [compare] gives int triples. *)
  let compare (s1, g1, d1) (s2, g2, d2) =
    let c = Int.compare s1 s2 in
    if c <> 0 then c
    else
      let c = Int.compare g1 g2 in
      if c <> 0 then c else Int.compare d1 d2
end)

type output = Const of float | Affine of { slope : float; intercept : float }

type state = {
  id : int;
  assertion : Assertion.t;
  attr : Power_attr.t;
  output : output;
  components : (Assertion.t * Power_attr.t) list;
}

type transition = { src : int; guard : int; dst : int }

type t = {
  table : Psm_mining.Prop_trace.Table.t;
  states : state IntMap.t;
  transitions : TransSet.t;
  initial : int list; (* insertion order, multiplicity significant *)
  next_id : int;
}

let empty table =
  { table; states = IntMap.empty; transitions = TransSet.empty; initial = []; next_id = 0 }

let prop_table t = t.table

let add_state_full t assertion attr ~output ~components =
  let id = t.next_id in
  let st = { id; assertion; attr; output; components } in
  ({ t with states = IntMap.add id st t.states; next_id = id + 1 }, id)

let add_state t assertion attr =
  add_state_full t assertion attr ~output:(Const attr.Power_attr.mu)
    ~components:[ (assertion, attr) ]

let check_state t id ctx =
  if not (IntMap.mem id t.states) then
    invalid_arg (Printf.sprintf "Psm.%s: unknown state %d" ctx id)

let set_output t id output =
  check_state t id "set_output";
  { t with states = IntMap.update id (Option.map (fun s -> { s with output })) t.states }

let add_transition t ~src ~guard ~dst =
  check_state t src "add_transition";
  check_state t dst "add_transition";
  { t with transitions = TransSet.add (src, guard, dst) t.transitions }

let add_initial t id =
  check_state t id "add_initial";
  { t with initial = t.initial @ [ id ] }

let state t id =
  match IntMap.find_opt id t.states with Some s -> s | None -> raise Not_found

let states t = IntMap.bindings t.states |> List.map snd

let transitions t =
  List.map (fun (src, guard, dst) -> { src; guard; dst }) (TransSet.elements t.transitions)

let initial t = t.initial

let id_bound t = t.next_id
let state_count t = IntMap.cardinal t.states
let transition_count t = TransSet.cardinal t.transitions

(* The transition set is ordered by (src, guard, dst): a state's
   out-edges are one contiguous range of it. *)
let successors t id =
  TransSet.to_seq_from (id, min_int, min_int) t.transitions
  |> Seq.take_while (fun (src, _, _) -> src = id)
  |> Seq.map (fun (src, guard, dst) -> { src; guard; dst })
  |> List.of_seq

let machine_count t =
  (* Weakly-connected components by union-find over transition endpoints. *)
  let parent = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
        let root = find p in
        Hashtbl.replace parent x root;
        root
    | Some _ -> x
    | None ->
        Hashtbl.replace parent x x;
        x
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  IntMap.iter (fun id _ -> ignore (find id)) t.states;
  TransSet.iter (fun (src, _, dst) -> union src dst) t.transitions;
  let roots = Hashtbl.create 16 in
  IntMap.iter (fun id _ -> Hashtbl.replace roots (find id) ()) t.states;
  Hashtbl.length roots

let eval_output output ~hamming =
  match output with
  | Const mu -> mu
  | Affine { slope; intercept } -> (slope *. hamming) +. intercept

let union parts =
  match parts with
  | [] -> invalid_arg "Psm.union: empty list"
  | first :: rest ->
      List.iter
        (fun p ->
          if p.table != first.table then
            invalid_arg "Psm.union: constituents use different proposition tables")
        rest;
      List.fold_left
        (fun acc part ->
          let offset = acc.next_id in
          let states =
            IntMap.fold
              (fun id s acc_states ->
                IntMap.add (id + offset) { s with id = id + offset } acc_states)
              part.states acc.states
          in
          let transitions =
            TransSet.fold
              (fun (src, guard, dst) acc_tr ->
                TransSet.add (src + offset, guard, dst + offset) acc_tr)
              part.transitions acc.transitions
          in
          { acc with
            states;
            transitions;
            initial = acc.initial @ List.map (fun i -> i + offset) part.initial;
            next_id = offset + part.next_id })
        first rest

let of_states table states ~transitions ~initial =
  let n = Array.length states in
  let known id = id >= 0 && id < n in
  let map =
    Array.fold_left
      (fun (i, acc) s ->
        if s.id <> i then invalid_arg (Printf.sprintf "Psm.of_states: state %d at index %d" s.id i);
        (i + 1, IntMap.add i s acc))
      (0, IntMap.empty) states
    |> snd
  in
  let triples =
    List.map
      (fun tr ->
        if not (known tr.src && known tr.dst) then
          invalid_arg
            (Printf.sprintf "Psm.of_states: transition s%d -> s%d names no state" tr.src tr.dst);
        (tr.src, tr.guard, tr.dst))
      transitions
  in
  List.iter
    (fun id ->
      if not (known id) then
        invalid_arg (Printf.sprintf "Psm.of_states: initial state %d names no state" id))
    initial;
  { table; states = map; transitions = TransSet.of_list triples; initial; next_id = n }

type cluster = {
  members : int list;
  new_assertion : Assertion.t;
  new_attr : Power_attr.t;
  new_components : (Assertion.t * Power_attr.t) list;
}

let merge_clusters t ~internal_edges clusters =
  (* Validate and build the redirect map. *)
  let redirect = Hashtbl.create 64 in
  let next_id = ref t.next_id in
  let merged_states = ref [] in
  List.iter
    (fun c ->
      if List.length c.members < 2 then
        invalid_arg "Psm.merge_clusters: cluster needs at least 2 members";
      let id = !next_id in
      incr next_id;
      List.iter
        (fun m ->
          check_state t m "merge_clusters";
          if Hashtbl.mem redirect m then
            invalid_arg "Psm.merge_clusters: clusters are not disjoint";
          Hashtbl.replace redirect m id)
        c.members;
      merged_states :=
        { id;
          assertion = c.new_assertion;
          attr = c.new_attr;
          output = Const c.new_attr.Power_attr.mu;
          components = c.new_components }
        :: !merged_states)
    clusters;
  let target id = match Hashtbl.find_opt redirect id with Some m -> m | None -> id in
  (* Under [`Drop], member i -> member i + 1: the links a sequential
     assertion absorbs. *)
  let chain_next = Hashtbl.create 64 in
  if internal_edges = `Drop then
    List.iter
      (fun c ->
        let rec link = function
          | a :: (b :: _ as rest) ->
              Hashtbl.replace chain_next a b;
              link rest
          | [ _ ] | [] -> ()
        in
        link c.members)
      clusters;
  let states =
    IntMap.fold
      (fun id s acc -> if Hashtbl.mem redirect id then acc else IntMap.add id s acc)
      t.states IntMap.empty
  in
  let states =
    List.fold_left (fun acc s -> IntMap.add s.id s acc) states !merged_states
  in
  let transitions =
    TransSet.fold
      (fun (src0, guard, dst0) acc ->
        let src = target src0 and dst = target dst0 in
        let chain_link = src = dst && Hashtbl.find_opt chain_next src0 = Some dst0 in
        if chain_link then acc
        else TransSet.add (src, guard, dst) acc)
      t.transitions TransSet.empty
  in
  ( { t with
      states;
      transitions;
      initial = List.map target t.initial;
      next_id = !next_id },
    Hashtbl.fold (fun m id acc -> (m, id) :: acc) redirect [] )

let pp fmt t =
  let name p = Psm_mining.Prop_trace.Table.name t.table p in
  Format.fprintf fmt "@[<v>PSM set: %d states, %d transitions, %d machine(s)@,"
    (state_count t) (transition_count t) (machine_count t);
  Format.fprintf fmt "initial:%a@,"
    (fun fmt -> List.iter (fun i -> Format.fprintf fmt " s%d" i))
    t.initial;
  List.iter
    (fun s ->
      Format.fprintf fmt "  s%d: %a  [%a]%s@," s.id (Assertion.pp_named name) s.assertion
        Power_attr.pp s.attr
        (match s.output with
        | Const _ -> ""
        | Affine { slope; intercept } ->
            Printf.sprintf "  out = %.4g*hd + %.4g" slope intercept))
    (states t);
  List.iter
    (fun tr -> Format.fprintf fmt "  s%d --[%s]--> s%d@," tr.src (name tr.guard) tr.dst)
    (transitions t);
  Format.fprintf fmt "@]"
