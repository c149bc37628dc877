type t = {
  input : Psm.t;
  mutable n : int;
  mutable ids : int array;
  mutable bound : int;
  mutable assertions : Assertion.t array;
  mutable attrs : Power_attr.t array;
  mutable outputs : Psm.output array;
  mutable components : (Assertion.t * Power_attr.t) list array;
  mutable edges : int;
  src : int array;
  guard : int array;
  dst : int array;
  mutable initial : int list;
  total : int array;
  mutable merged : bool;
}

let of_psm psm =
  let states = Array.of_list (Psm.states psm) in
  let total = Array.make (Psm.id_bound psm) (-1) in
  Array.iteri (fun i (s : Psm.state) -> total.(s.Psm.id) <- i) states;
  let trs = Array.of_list (Psm.transitions psm) in
  { input = psm;
    n = Array.length states;
    ids = Array.map (fun (s : Psm.state) -> s.Psm.id) states;
    bound = Psm.id_bound psm;
    assertions = Array.map (fun (s : Psm.state) -> s.Psm.assertion) states;
    attrs = Array.map (fun (s : Psm.state) -> s.Psm.attr) states;
    outputs = Array.map (fun (s : Psm.state) -> s.Psm.output) states;
    components = Array.map (fun (s : Psm.state) -> s.Psm.components) states;
    edges = Array.length trs;
    src = Array.map (fun (tr : Psm.transition) -> total.(tr.Psm.src)) trs;
    guard = Array.map (fun (tr : Psm.transition) -> tr.Psm.guard) trs;
    dst = Array.map (fun (tr : Psm.transition) -> total.(tr.Psm.dst)) trs;
    initial = List.map (fun id -> total.(id)) (Psm.initial psm);
    total;
    merged = false }

let merge w ~drop_links clusters =
  let n = w.n in
  let clusters = Array.of_list clusters in
  let nc = Array.length clusters in
  (* Entity e < n is kept slot e; entity n + k is cluster k. *)
  let owner = Array.make n (-1) in
  let chain_next = Array.make (if drop_links then n else 0) (-1) in
  let absorbed = ref 0 in
  Array.iteri
    (fun k c ->
      List.iter
        (fun m ->
          owner.(m) <- k;
          incr absorbed)
        c.Psm.members;
      if drop_links then begin
        let rec link = function
          | a :: (b :: _ as rest) ->
              chain_next.(a) <- b;
              link rest
          | [ _ ] | [] -> ()
        in
        link c.Psm.members
      end)
    clusters;
  let n' = n - !absorbed + nc in
  (* The canonical sort key per entity: (trace, start) of the first
     interval, then the id merge_clusters gives it. *)
  let key_trace = Array.make (n + nc) max_int and key_start = Array.make (n + nc) max_int in
  let key_id = Array.make (n + nc) 0 in
  let set_key e (attr : Power_attr.t) id =
    (match attr.Power_attr.intervals with
    | { Power_attr.trace; start; _ } :: _ ->
        key_trace.(e) <- trace;
        key_start.(e) <- start
    | [] -> ());
    key_id.(e) <- id
  in
  for i = 0 to n - 1 do
    if owner.(i) < 0 then set_key i w.attrs.(i) w.ids.(i)
  done;
  Array.iteri (fun k c -> set_key (n + k) c.Psm.new_attr (w.bound + k)) clusters;
  let compare_entities a b =
    let c = Int.compare key_trace.(a) key_trace.(b) in
    if c <> 0 then c
    else
      let c = Int.compare key_start.(a) key_start.(b) in
      if c <> 0 then c else Int.compare key_id.(a) key_id.(b)
  in
  (* Each cluster first stands where its lowest member stood. In a
     canonical machine that is already the sorted order, and the check
     below skips the sort. *)
  let order = Array.make n' 0 in
  let placed = Array.make nc false in
  let p = ref 0 in
  for i = 0 to n - 1 do
    let k = owner.(i) in
    if k < 0 then begin
      order.(!p) <- i;
      incr p
    end
    else if not placed.(k) then begin
      placed.(k) <- true;
      order.(!p) <- n + k;
      incr p
    end
  done;
  let sorted = ref true in
  for q = 1 to n' - 1 do
    if compare_entities order.(q - 1) order.(q) > 0 then sorted := false
  done;
  if not !sorted then Array.stable_sort compare_entities order;
  let pos = Array.make (n + nc) 0 in
  Array.iteri (fun q e -> pos.(e) <- q) order;
  let slot_of i = if owner.(i) >= 0 then pos.(n + owner.(i)) else pos.(i) in
  let pick kept of_cluster = Array.map (fun e -> if e < n then kept e else of_cluster clusters.(e - n)) order in
  w.assertions <- pick (fun e -> w.assertions.(e)) (fun c -> c.Psm.new_assertion);
  w.attrs <- pick (fun e -> w.attrs.(e)) (fun c -> c.Psm.new_attr);
  w.outputs <- pick (fun e -> w.outputs.(e)) (fun c -> Psm.Const c.Psm.new_attr.Power_attr.mu);
  w.components <- pick (fun e -> w.components.(e)) (fun c -> c.Psm.new_components);
  w.ids <- Array.init n' Fun.id;
  w.bound <- n';
  w.n <- n';
  (* Transitions: redirect in place, dropping the absorbed links. *)
  let kept = ref 0 in
  for e = 0 to w.edges - 1 do
    let s = w.src.(e) and d = w.dst.(e) in
    if not (drop_links && chain_next.(s) = d) then begin
      w.src.(!kept) <- slot_of s;
      w.guard.(!kept) <- w.guard.(e);
      w.dst.(!kept) <- slot_of d;
      incr kept
    end
  done;
  w.edges <- !kept;
  w.initial <- List.map slot_of w.initial;
  Array.iteri (fun o cur -> if cur >= 0 then w.total.(o) <- slot_of cur) w.total;
  w.merged <- true

let to_psm w =
  if not w.merged then (w.input, Fun.id)
  else begin
    let states =
      Array.init w.n (fun i ->
          { Psm.id = i;
            assertion = w.assertions.(i);
            attr = w.attrs.(i);
            output = w.outputs.(i);
            components = w.components.(i) })
    in
    let transitions =
      List.init w.edges (fun e -> { Psm.src = w.src.(e); guard = w.guard.(e); dst = w.dst.(e) })
    in
    let psm =
      Psm.of_states (Psm.prop_table w.input) states ~transitions ~initial:w.initial
    in
    let total = w.total in
    let resolve id =
      if id >= 0 && id < Array.length total && total.(id) >= 0 then total.(id) else id
    in
    (psm, resolve)
  end
