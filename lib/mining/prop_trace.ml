module Functional_trace = Psm_trace.Functional_trace

module Table = struct
  (* Truth rows are stored packed (one bit per atom, {!Vocabulary.row_key}
     layout): the interning key and the stored row are the same string.
     Classification evaluates atoms straight into a per-table scratch
     buffer, so {!code} allocates nothing — on a 500k-instant trace the
     previous representation allocated a [bool array] and a key string
     per instant. The scratch
     buffer makes a table single-domain: {!of_functional} classifies in
     one sequential walk. *)
  type t = {
    vocabulary : Vocabulary.t;
    index : (string, int) Hashtbl.t; (* packed truth row -> prop id *)
    mutable rows : string array; (* prop id -> packed truth row *)
    mutable count : int;
    scratch : Bytes.t;
  }

  let create vocabulary =
    { vocabulary;
      index = Hashtbl.create 64;
      rows = Array.make 16 "";
      count = 0;
      scratch = Bytes.create (Vocabulary.packed_size vocabulary) }

  let vocabulary t = t.vocabulary
  let prop_count t = t.count

  let add_key t key =
    if t.count = Array.length t.rows then begin
      let bigger = Array.make (2 * t.count) "" in
      Array.blit t.rows 0 bigger 0 t.count;
      t.rows <- bigger
    end;
    t.rows.(t.count) <- key;
    Hashtbl.add t.index key t.count;
    t.count <- t.count + 1;
    t.count - 1

  let intern_key t key =
    match Hashtbl.find_opt t.index key with
    | Some id -> id
    | None -> add_key t key

  let classify_or_add t sample =
    Vocabulary.eval_into t.vocabulary t.scratch sample;
    (* Ephemeral unsafe view: used only for the lookup below, never
       retained, and [scratch] is not mutated while it is live. *)
    match Hashtbl.find_opt t.index (Bytes.unsafe_to_string t.scratch) with
    | Some id -> id
    | None -> add_key t (Bytes.to_string t.scratch)

  let code t sample =
    Vocabulary.eval_into t.vocabulary t.scratch sample;
    match Hashtbl.find t.index (Bytes.unsafe_to_string t.scratch) with
    | id -> id
    | exception Not_found -> -1

  let classify t sample = match code t sample with -1 -> None | id -> Some id

  let intern_row t row =
    if Array.length row <> Vocabulary.size t.vocabulary then
      invalid_arg "Prop_trace.Table.intern_row: row size mismatch";
    intern_key t (Vocabulary.row_key row)

  let check_id t id =
    if id < 0 || id >= t.count then invalid_arg "Prop_trace.Table: unknown proposition id"

  let row t id =
    check_id t id;
    Vocabulary.unpack_key t.vocabulary t.rows.(id)

  let true_atoms t id =
    check_id t id;
    let key = t.rows.(id) in
    let atoms = ref [] in
    for i = 0 to Vocabulary.size t.vocabulary - 1 do
      if Char.code key.[i lsr 3] land (1 lsl (i land 7)) <> 0 then
        atoms := Vocabulary.atom t.vocabulary i :: !atoms
    done;
    List.rev !atoms

  (* p_a .. p_z, p_aa, p_ab, ... *)
  let name t id =
    check_id t id;
    let rec letters n acc =
      let acc = String.make 1 (Char.chr (Char.code 'a' + (n mod 26))) ^ acc in
      if n < 26 then acc else letters ((n / 26) - 1) acc
    in
    "p_" ^ letters id ""

  let pp_prop t fmt id =
    check_id t id;
    let iface = Vocabulary.interface t.vocabulary in
    let positives = true_atoms t id in
    Format.fprintf fmt "%s:" (name t id);
    if positives = [] then Format.fprintf fmt " (all atoms false)"
    else
      List.iteri
        (fun i a ->
          Format.fprintf fmt "%s %a" (if i = 0 then "" else " &") (Atomic.pp iface) a)
        positives
end

type t = {
  table : Table.t;
  ids : int array;
  (* Maximal constant segments as (prop, start, stop): the per-run walk
     builds them as a by-product, and the per-run consumers (flow's
     emission projection, reports) reuse them. *)
  segs : (int * int * int) array;
}

let of_functional table trace =
  Psm_obs.span "mine.classify" @@ fun () ->
  let before = Table.prop_count table in
  let ids = Array.make (Functional_trace.length trace) 0 in
  (* One classification per run of identical samples; ids fill in bulk,
     in time order, so interning order (and hence every id) matches a
     per-cycle walk. Adjacent runs with equal ids (distinct samples, same
     truth row) merge into one segment. *)
  let rev = ref [] in
  Functional_trace.iter_runs
    (fun ~start ~len sample ->
      let id = Table.classify_or_add table sample in
      Array.fill ids start len id;
      match !rev with
      | (p, s0, _) :: tl when p = id -> rev := (p, s0, start + len - 1) :: tl
      | _ -> rev := (id, start, start + len - 1) :: !rev)
    trace;
  Psm_obs.count "mine.props_interned" (Table.prop_count table - before);
  { table; ids; segs = Array.of_list (List.rev !rev) }

let table t = t.table
let length t = Array.length t.ids

let prop_at t i =
  if i < 0 || i >= length t then invalid_arg "Prop_trace.prop_at: instant out of range";
  t.ids.(i)

let prop_ids t = Array.copy t.ids

let segments t = Array.to_list t.segs

let iter_prop_runs t ~start ~stop f =
  if start < 0 || stop >= length t || stop < start then
    invalid_arg "Prop_trace.iter_prop_runs: window out of range";
  let segs = t.segs in
  (* First segment whose stop reaches the window. *)
  let lo = ref 0 and hi = ref (Array.length segs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let _, _, s_stop = segs.(mid) in
    if s_stop < start then lo := mid + 1 else hi := mid
  done;
  let i = ref !lo in
  let continue = ref true in
  while !continue && !i < Array.length segs do
    let p, s_start, s_stop = segs.(!i) in
    if s_start > stop then continue := false
    else begin
      let a = max s_start start and b = min s_stop stop in
      f p ~start:a ~len:(b - a + 1);
      incr i
    end
  done

let holds_exactly_one t trace =
  length t = Functional_trace.length trace
  && begin
       let ok = ref true in
       Functional_trace.iter
         (fun time sample -> if Table.code t.table sample <> t.ids.(time) then ok := false)
         trace;
       (* Mutual exclusion is structural: rows are complete conjunctions,
          so a sample matches exactly the row of its own truth vector. *)
       !ok
     end

let pp fmt t =
  Format.fprintf fmt "@[<v>proposition trace, %d instants, %d propositions:@,"
    (length t) (Table.prop_count t.table);
  List.iter
    (fun (p, start, stop) ->
      Format.fprintf fmt "  [%d,%d] %s@," start stop (Table.name t.table p))
    (segments t);
  Format.fprintf fmt "@]"
