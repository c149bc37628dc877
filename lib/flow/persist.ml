module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module Reader = Psm_trace.Reader
module Atomic = Psm_mining.Atomic
module Vocabulary = Psm_mining.Vocabulary
module Table = Psm_mining.Prop_trace.Table
module Assertion = Psm_core.Assertion
module Power_attr = Psm_core.Power_attr
module Psm = Psm_core.Psm
module Hmm = Psm_hmm.Hmm

type model = { table : Table.t; psm : Psm.t; hmm : Hmm.t }

exception Parse_error of string

let version_line = "psm-repro-model 1"

(* ---------- assertion text ---------- *)

let rec assertion_to_string = function
  | Assertion.Until (p, q) -> Printf.sprintf "(U %d %d)" p q
  | Assertion.Next (p, q) -> Printf.sprintf "(X %d %d)" p q
  | Assertion.Seq parts ->
      "(seq " ^ String.concat " " (List.map assertion_to_string parts) ^ ")"
  | Assertion.Alt parts ->
      "(alt " ^ String.concat " " (List.map assertion_to_string parts) ^ ")"

let tokenize_sexp text =
  let buf = Buffer.create 8 in
  let tokens = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | '(' | ')' ->
          flush ();
          tokens := String.make 1 c :: !tokens
      | ' ' | '\t' -> flush ()
      | c -> Buffer.add_char buf c)
    text;
  flush ();
  List.rev !tokens

let parse_assertion text =
  let int_of tok =
    match int_of_string_opt tok with
    | Some v -> v
    | None -> raise (Parse_error ("bad proposition id " ^ tok))
  in
  (* Recursive descent over the token list. *)
  let rec parse tokens =
    match tokens with
    | "(" :: "U" :: p :: q :: ")" :: rest -> (Assertion.Until (int_of p, int_of q), rest)
    | "(" :: "X" :: p :: q :: ")" :: rest -> (Assertion.Next (int_of p, int_of q), rest)
    | "(" :: "seq" :: rest ->
        let parts, rest = parse_list rest in
        (Assertion.seq parts, rest)
    | "(" :: "alt" :: rest ->
        let parts, rest = parse_list rest in
        (Assertion.alt parts, rest)
    | tok :: _ -> raise (Parse_error ("unexpected assertion token " ^ tok))
    | [] -> raise (Parse_error "truncated assertion")
  and parse_list tokens =
    match tokens with
    | ")" :: rest -> ([], rest)
    | _ ->
        let first, rest = parse tokens in
        let more, rest = parse_list rest in
        (first :: more, rest)
  in
  match parse (tokenize_sexp text) with
  | assertion, [] -> assertion
  | _, leftover :: _ -> raise (Parse_error ("trailing assertion token " ^ leftover))

(* ---------- save ---------- *)

let float_str f = Printf.sprintf "%.17g" f

let attr_line (a : Power_attr.t) =
  Printf.sprintf "%s %s %d" (float_str a.Power_attr.mu) (float_str a.Power_attr.sigma)
    a.Power_attr.n

let save (trained : Flow.trained) =
  let buf = Buffer.create 8192 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  addf "%s" version_line;
  let table = trained.Flow.table in
  let vocabulary = Table.vocabulary table in
  let iface = Vocabulary.interface vocabulary in
  let signals = Interface.signals iface in
  addf "interface %d" (Array.length signals);
  Array.iter
    (fun (s : Signal.t) ->
      if String.contains s.Signal.name ' ' then
        invalid_arg "Persist.save: signal names must not contain spaces";
      addf "%s %s %d"
        (if Signal.is_input s then "in" else "out")
        s.Signal.name s.Signal.width)
    signals;
  let atoms = Vocabulary.atoms vocabulary in
  addf "atoms %d" (Array.length atoms);
  Array.iter
    (fun (a : Atomic.t) ->
      let cmp =
        match a.Atomic.cmp with Atomic.Eq -> "eq" | Atomic.Lt -> "lt" | Atomic.Gt -> "gt"
      in
      match a.Atomic.rhs with
      | Atomic.Const v ->
          addf "atom %d %s const %d %s" a.Atomic.lhs cmp (Bits.width v)
            (Bits.to_hex_string v)
      | Atomic.Sig i -> addf "atom %d %s sig %d" a.Atomic.lhs cmp i)
    atoms;
  addf "props %d" (Table.prop_count table);
  for p = 0 to Table.prop_count table - 1 do
    let row = Table.row table p in
    addf "prop %s"
      (String.init (Array.length row) (fun i -> if row.(i) then '1' else '0'))
  done;
  (* States with compacted ids. *)
  let psm = trained.Flow.optimized in
  let states = Psm.states psm in
  let dense = Hashtbl.create 16 in
  List.iteri (fun i (s : Psm.state) -> Hashtbl.replace dense s.Psm.id i) states;
  let d id =
    match Hashtbl.find_opt dense id with
    | Some i -> i
    | None -> invalid_arg "Persist.save: dangling state id"
  in
  addf "states %d" (List.length states);
  List.iter
    (fun (s : Psm.state) ->
      let output =
        match s.Psm.output with
        | Psm.Const v -> "const " ^ float_str v
        | Psm.Affine { slope; intercept } ->
            Printf.sprintf "affine %s %s" (float_str slope) (float_str intercept)
      in
      addf "state %d %s %s" (d s.Psm.id) (attr_line s.Psm.attr) output;
      addf "assert %s" (assertion_to_string s.Psm.assertion);
      addf "intervals %d" (List.length s.Psm.attr.Power_attr.intervals);
      List.iter
        (fun (iv : Power_attr.interval) ->
          addf "iv %d %d %d" iv.Power_attr.trace iv.Power_attr.start iv.Power_attr.stop)
        s.Psm.attr.Power_attr.intervals;
      addf "components %d" (List.length s.Psm.components);
      List.iter
        (fun (assertion, (attr : Power_attr.t)) ->
          addf "comp %s ; %s" (attr_line attr) (assertion_to_string assertion))
        s.Psm.components)
    states;
  let transitions = Psm.transitions psm in
  addf "transitions %d" (List.length transitions);
  List.iter
    (fun (tr : Psm.transition) ->
      addf "t %d %d %d" (d tr.Psm.src) tr.Psm.guard (d tr.Psm.dst))
    transitions;
  let initial = Psm.initial psm in
  addf "initial %d" (List.length initial);
  List.iter (fun id -> addf "i %d" (d id)) initial;
  addf "counts-trans %d" (List.length trained.Flow.transition_counts);
  List.iter
    (fun ((src, dst), c) ->
      match (Hashtbl.find_opt dense src, Hashtbl.find_opt dense dst) with
      | Some s, Some dd -> addf "ct %d %d %s" s dd (float_str c)
      | _ -> addf "ct -1 -1 0" (* raw-chain id that did not survive; ignored *))
    trained.Flow.transition_counts;
  addf "counts-emit %d" (List.length trained.Flow.emission_counts);
  List.iter
    (fun ((state, prop), c) ->
      match Hashtbl.find_opt dense state with
      | Some s -> addf "ce %d %d %s" s prop (float_str c)
      | None -> addf "ce -1 -1 0")
    trained.Flow.emission_counts;
  addf "end";
  Buffer.contents buf

let save_file path trained =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save trained))

(* ---------- load ---------- *)

(* The cursor is a streaming [Reader.t]: one line of the model file is
   live at a time. *)
let next cursor =
  let rec go () =
    match Reader.next_line cursor with
    | None -> raise (Parse_error "unexpected end of model file")
    | Some line ->
        let line = String.trim line in
        if line = "" then go () else line
  in
  go ()

let fail cursor msg =
  raise (Parse_error (Printf.sprintf "line %d: %s" (Reader.line cursor) msg))

let words line = String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

let expect_count cursor keyword =
  match words (next cursor) with
  | [ k; n ] when k = keyword -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> n
      | _ -> fail cursor ("bad count after " ^ keyword))
  | _ -> fail cursor ("expected '" ^ keyword ^ " <n>'")

let int_word cursor w =
  match int_of_string_opt w with Some v -> v | None -> fail cursor ("bad integer " ^ w)

let float_word cursor w =
  match float_of_string_opt w with Some v -> v | None -> fail cursor ("bad float " ^ w)

(* An id that indexes a table of [bound] entries. *)
let id_word cursor ~what ~bound w =
  let v = int_word cursor w in
  if v < 0 || v >= bound then
    fail cursor (Printf.sprintf "%s %d out of range [0, %d)" what v bound);
  v

(* Training frequencies feed A and B: NaN, infinite or negative mass
   would load as a model that only [lint] flags. *)
let count_word cursor w =
  let c = float_word cursor w in
  if not (Float.is_finite c && c >= 0.) then
    fail cursor ("count " ^ w ^ " is not finite and non-negative");
  c

let read ?(source = "<string>") cursor =
  (match next cursor with
  | line when line = version_line -> ()
  | line ->
      let hint =
        if String.length line >= 17 && String.sub line 0 17 = "psm-repro-trainer" then
          " (this is a streaming-trainer checkpoint, not a model; resume it \
           with Persist.load_trainer_file instead)"
        else ""
      in
      raise
        (Parse_error
           (Printf.sprintf "%s: bad version header: found %S, expected %S%s"
              source line version_line hint)));
  (* Interface. *)
  let n_signals = expect_count cursor "interface" in
  let signals =
    List.init n_signals (fun _ ->
        match words (next cursor) with
        | [ "in"; name; w ] -> Signal.input name (int_word cursor w)
        | [ "out"; name; w ] -> Signal.output name (int_word cursor w)
        | _ -> fail cursor "bad signal line")
  in
  let iface = Interface.create signals in
  (* Atoms. *)
  let n_atoms = expect_count cursor "atoms" in
  let atoms =
    List.init n_atoms (fun _ ->
        let cmp_of = function
          | "eq" -> Atomic.Eq
          | "lt" -> Atomic.Lt
          | "gt" -> Atomic.Gt
          | w -> fail cursor ("bad comparison " ^ w)
        in
        match words (next cursor) with
        | [ "atom"; lhs; cmp; "const"; w; hex ] ->
            { Atomic.lhs = int_word cursor lhs;
              cmp = cmp_of cmp;
              rhs = Atomic.Const (Bits.of_hex_string ~width:(int_word cursor w) hex) }
        | [ "atom"; lhs; cmp; "sig"; rhs ] ->
            { Atomic.lhs = int_word cursor lhs;
              cmp = cmp_of cmp;
              rhs = Atomic.Sig (int_word cursor rhs) }
        | _ -> fail cursor "bad atom line")
  in
  let vocabulary = Vocabulary.create iface atoms in
  if Vocabulary.size vocabulary <> n_atoms then
    raise (Parse_error "duplicate atoms in model file");
  let table = Table.create vocabulary in
  (* Propositions: rows interned in saved order keep their ids. *)
  let n_props = expect_count cursor "props" in
  for expected = 0 to n_props - 1 do
    match words (next cursor) with
    | [ "prop"; bits ] ->
        if String.length bits <> n_atoms then fail cursor "row width mismatch";
        let row = Array.init n_atoms (fun i -> bits.[i] = '1') in
        let id = Table.intern_row table row in
        if id <> expected then fail cursor "duplicate proposition row"
    | _ -> fail cursor "bad prop line"
  done;
  (* States. *)
  let n_states = expect_count cursor "states" in
  let psm = ref (Psm.empty table) in
  for expected = 0 to n_states - 1 do
    let id, mu, sigma, n, output =
      match words (next cursor) with
      | "state" :: id :: mu :: sigma :: n :: rest ->
          let output =
            match rest with
            | [ "const"; v ] -> Psm.Const (float_word cursor v)
            | [ "affine"; a; b ] ->
                Psm.Affine { slope = float_word cursor a; intercept = float_word cursor b }
            | _ -> fail cursor "bad output spec"
          in
          (int_word cursor id, float_word cursor mu, float_word cursor sigma,
           int_word cursor n, output)
      | _ -> fail cursor "bad state line"
    in
    if id <> expected then fail cursor "states out of order";
    let assertion =
      match words (next cursor) with
      | "assert" :: rest -> parse_assertion (String.concat " " rest)
      | _ -> fail cursor "expected assert line"
    in
    let n_ivs = expect_count cursor "intervals" in
    let intervals =
      List.init n_ivs (fun _ ->
          match words (next cursor) with
          | [ "iv"; trace; start; stop ] ->
              { Power_attr.trace = int_word cursor trace;
                start = int_word cursor start;
                stop = int_word cursor stop }
          | _ -> fail cursor "bad interval line")
    in
    let n_comps = expect_count cursor "components" in
    let components =
      List.init n_comps (fun _ ->
          match words (next cursor) with
          | "comp" :: mu :: sigma :: n :: ";" :: rest ->
              let attr =
                { Power_attr.mu = float_word cursor mu;
                  sigma = float_word cursor sigma;
                  n = int_word cursor n;
                  intervals = [] }
              in
              (parse_assertion (String.concat " " rest), attr)
          | _ -> fail cursor "bad component line")
    in
    let attr = { Power_attr.mu; sigma; n; intervals } in
    let psm', new_id = Psm.add_state_full !psm assertion attr ~output ~components in
    if new_id <> expected then fail cursor "state id drift";
    psm := psm'
  done;
  (* Transitions / initial. *)
  let n_tr = expect_count cursor "transitions" in
  let state_word = id_word cursor ~what:"state" ~bound:n_states in
  let prop_word = id_word cursor ~what:"proposition" ~bound:n_props in
  for _ = 1 to n_tr do
    match words (next cursor) with
    | [ "t"; src; guard; dst ] ->
        psm :=
          Psm.add_transition !psm ~src:(state_word src) ~guard:(prop_word guard)
            ~dst:(state_word dst)
    | _ -> fail cursor "bad transition line"
  done;
  let n_init = expect_count cursor "initial" in
  for _ = 1 to n_init do
    match words (next cursor) with
    | [ "i"; id ] -> psm := Psm.add_initial !psm (state_word id)
    | _ -> fail cursor "bad initial line"
  done;
  (* Counts. A negative source is the saver's placeholder for a raw-chain
     state that did not survive; it is skipped, every other id must
     resolve. *)
  let n_ct = expect_count cursor "counts-trans" in
  let transition_counts =
    List.init n_ct (fun _ ->
        match words (next cursor) with
        | [ "ct"; src; dst; c ] ->
            let c = count_word cursor c in
            if int_word cursor src < 0 then None
            else Some ((state_word src, state_word dst), c)
        | _ -> fail cursor "bad count line")
    |> List.filter_map Fun.id
  in
  let n_ce = expect_count cursor "counts-emit" in
  let emission_counts =
    List.init n_ce (fun _ ->
        match words (next cursor) with
        | [ "ce"; state; prop; c ] ->
            let c = count_word cursor c in
            if int_word cursor state < 0 then None
            else Some ((state_word state, prop_word prop), c)
        | _ -> fail cursor "bad emission line")
    |> List.filter_map Fun.id
  in
  if next cursor <> "end" then raise (Parse_error "missing end marker");
  let psm = !psm in
  let hmm = Hmm.build ~transition_counts ~emission_counts psm in
  { table; psm; hmm }

let load text = read (Reader.of_string text)

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> read ~source:path (Reader.of_channel ic))

(* ---------- streaming-trainer checkpoints ---------- *)

let save_trainer_file = Stream_train.Checkpoint.save_file
let load_trainer_file = Stream_train.Checkpoint.load_file
