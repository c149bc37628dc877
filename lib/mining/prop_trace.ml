module Functional_trace = Psm_trace.Functional_trace

module Table = struct
  (* Truth rows are stored packed (one bit per atom, {!Vocabulary.row_key}
     layout): the interning key and the stored row are the same string,
     found through an open-addressing index hashed by the key's bytes.

     Classification evaluates atoms into [scratch], which always holds
     the truth row of the operand values in [seen_lhs]/[seen_rhs]: an atom
     whose operands are the same physical values as at its last
     evaluation keeps its bit ([Bits.t] is immutable), so a sample that
     shares most of its values with the one before re-evaluates only the
     atoms over the values that changed, and a truth row that did not
     change is not looked up again ([seen_id]). {!code} allocates
     nothing. This state makes a table single-domain: {!of_functional}
     classifies in one sequential walk. *)
  type t = {
    vocabulary : Vocabulary.t;
    atoms : Atomic.t array;
    mutable slots : int array; (* open addressing: prop id, or -1 when free *)
    mutable rows : string array; (* prop id -> packed truth row *)
    mutable count : int;
    scratch : Bytes.t;
    seen_lhs : Psm_bits.Bits.t array; (* per atom: the operands [scratch] holds *)
    seen_rhs : Psm_bits.Bits.t array;
    mutable seen_id : int; (* the id of [scratch], -1 if none, or [stale] *)
  }

  let stale = -2

  (* A value no sample holds: every atom is evaluated on first use. *)
  let never = Psm_bits.Bits.zero 1

  let create vocabulary =
    let atoms = Vocabulary.atoms vocabulary in
    { vocabulary;
      atoms;
      slots = Array.make 32 (-1);
      rows = Array.make 16 "";
      count = 0;
      scratch = Bytes.make (Vocabulary.packed_size vocabulary) '\000';
      seen_lhs = Array.make (Array.length atoms) never;
      seen_rhs = Array.make (Array.length atoms) never;
      seen_id = stale }

  let vocabulary t = t.vocabulary
  let prop_count t = t.count

  let rec hash_from key i h =
    if i = String.length key then h land max_int
    else hash_from key (i + 1) ((h lxor Char.code (String.unsafe_get key i)) * 0x100000001b3)

  let hash key =
    let h = hash_from key 0 (String.length key) in
    h lxor (h lsr 29)

  (* The id of [key] (a [Vocabulary.packed_size] string), or -1. *)
  let rec probe slots rows key i =
    let id = Array.unsafe_get slots i in
    if id < 0 then -1
    else if String.equal (Array.unsafe_get rows id) key then id
    else probe slots rows key ((i + 1) land (Array.length slots - 1))

  let find t key = probe t.slots t.rows key (hash key land (Array.length t.slots - 1))

  let rec insert slots id i =
    if slots.(i) < 0 then slots.(i) <- id
    else insert slots id ((i + 1) land (Array.length slots - 1))

  let add_key t key =
    if t.count = Array.length t.rows then begin
      let bigger = Array.make (2 * t.count) "" in
      Array.blit t.rows 0 bigger 0 t.count;
      t.rows <- bigger
    end;
    (* At most half full. *)
    if 2 * (t.count + 1) > Array.length t.slots then begin
      let slots = Array.make (2 * Array.length t.slots) (-1) in
      for id = 0 to t.count - 1 do
        let k = t.rows.(id) in
        insert slots id (hash k land (Array.length slots - 1))
      done;
      t.slots <- slots
    end;
    let id = t.count in
    t.rows.(id) <- key;
    insert t.slots id (hash key land (Array.length t.slots - 1));
    t.count <- id + 1;
    (* A key that was looked up and missing may be this one. *)
    t.seen_id <- stale;
    id

  let intern_key t key =
    match find t key with -1 -> add_key t key | id -> id

  (* Bring [scratch] to [sample]'s truth row. The operands are recorded
     only once the atom has been evaluated, so an atom that raises keeps
     raising. *)
  let refresh t sample =
    let atoms = t.atoms in
    for i = 0 to Array.length atoms - 1 do
      let a = Array.unsafe_get atoms i in
      let l = sample.(a.Atomic.lhs) in
      let r = match a.Atomic.rhs with Atomic.Const c -> c | Atomic.Sig j -> sample.(j) in
      if l != Array.unsafe_get t.seen_lhs i || r != Array.unsafe_get t.seen_rhs i then begin
        let truth = Atomic.holds a.Atomic.cmp l r in
        let j = i lsr 3 and bit = 1 lsl (i land 7) in
        let byte = Char.code (Bytes.unsafe_get t.scratch j) in
        if truth <> (byte land bit <> 0) then begin
          Bytes.unsafe_set t.scratch j (Char.unsafe_chr (byte lxor bit));
          t.seen_id <- stale
        end;
        (* Only what changed is stored: each store is a write barrier. *)
        if l != Array.unsafe_get t.seen_lhs i then Array.unsafe_set t.seen_lhs i l;
        if r != Array.unsafe_get t.seen_rhs i then Array.unsafe_set t.seen_rhs i r
      end
    done

  let code t sample =
    refresh t sample;
    if t.seen_id = stale then
      (* Ephemeral unsafe view: used only for the lookup, never
         retained, and [scratch] is not mutated while it is live. *)
      t.seen_id <- find t (Bytes.unsafe_to_string t.scratch);
    t.seen_id

  let classify_or_add t sample =
    match code t sample with
    | -1 ->
        let id = add_key t (Bytes.to_string t.scratch) in
        t.seen_id <- id;
        id
    | id -> id

  let classify t sample = match code t sample with -1 -> None | id -> Some id

  (* What trainer checkpoints marshal: changing it takes a new
     checkpoint version. *)
  type saved = { s_vocabulary : Vocabulary.t; s_rows : string array (* by prop id *) }

  let save t = { s_vocabulary = t.vocabulary; s_rows = Array.sub t.rows 0 t.count }

  let restore s =
    let t = create s.s_vocabulary in
    Array.iter (fun row -> ignore (add_key t row)) s.s_rows;
    t

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
