(* Reference VCD reader: the token-based body lexer the library's span
   scanner replaced, kept as the oracle the differential tests compare
   [Vcd.parse], [Vcd.read] and [Vcd.stream] against.

   Every token is a fresh string from [Reader.next_token]; each value
   change is decoded into an [event], applied to the held values, and
   every sample is copied into a [Functional_trace.Builder]. It is
   deliberately the slow, obvious reading of the format:

   - declarations as before, plus two rules the library added: a repeated
     identifier code of the same width and kind aliases its first
     declaration, and the one real variable must be [Vcd.power_var_name]
     (any other real variable is a located [Vcd.Parse_error]). Duplicate signal names and oversized widths are not
     checked here, so on those headers the oracle escapes with
     [Invalid_argument] (or runs out of memory) where the library raises
     [Vcd.Parse_error];
   - the value-change section lexed token by token;
   - gap expansion one grid point at a time, with the library's
     [Vcd.max_samples] bound on the grid. *)

module Bits = Psm_bits.Bits
module Reader = Psm_trace.Reader
module Vcd = Psm_trace.Vcd
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace

let fail_at r msg = raise (Vcd.Parse_error (Reader.error_at r msg))

let fail ~line ~column ?(snippet = "") msg =
  raise (Vcd.Parse_error { Reader.line; column; message = msg; snippet })

type var = { name : string; width : int; is_real : bool }

type target = Wire of { index : int; width : int } | Real

type declarations = {
  iface : Interface.t;
  timescale : string;
  targets : (string, target) Hashtbl.t;
  has_power : bool;
}

let parse_declarations r =
  let vars : (string, var) Hashtbl.t = Hashtbl.create 16 in
  let var_order = ref [] in
  let power_declared = ref false in
  let directions : (string, Signal.direction) Hashtbl.t = Hashtbl.create 16 in
  let timescale = ref "1ns" in
  let next what =
    match Reader.next_token r with
    | Some tok -> tok
    | None -> fail_at r ("unexpected end of input (expected " ^ what ^ ")")
  in
  let rec skip_to_end () =
    match Reader.next_token r with
    | None -> fail_at r "unterminated declaration command"
    | Some "$end" -> ()
    | Some _ -> skip_to_end ()
  in
  let rec directions_of () =
    match Reader.next_token r with
    | None -> fail_at r "unterminated $comment"
    | Some "$end" -> ()
    | Some tok ->
        (match String.index_opt tok '=' with
        | Some i ->
            let name = String.sub tok 0 i in
            let dir = String.sub tok (i + 1) (String.length tok - i - 1) in
            let d =
              match dir with
              | "in" -> Signal.Input
              | "out" -> Signal.Output
              | _ -> fail_at r ("bad direction " ^ dir)
            in
            Hashtbl.replace directions name d
        | None -> ());
        directions_of ()
  in
  let rec decls () =
    match Reader.next_token r with
    | None -> fail_at r "missing $enddefinitions"
    | Some "$enddefinitions" -> skip_to_end ()
    | Some "$timescale" ->
        let rec grab acc =
          match Reader.next_token r with
          | Some "$end" -> String.concat "" (List.rev acc)
          | Some tok -> grab (tok :: acc)
          | None -> fail_at r "unterminated $timescale"
        in
        timescale := grab [];
        decls ()
    | Some "$comment" ->
        (match Reader.next_token r with
        | None -> fail_at r "unterminated $comment"
        | Some "directions:" -> directions_of ()
        | Some "$end" -> ()
        | Some _ -> skip_to_end ());
        decls ()
    | Some "$var" ->
        let line, column = Reader.position r in
        let kind = next "$var kind" in
        let w = next "$var width" in
        let id = next "$var identifier" in
        let name = next "$var name" in
        let width =
          match int_of_string_opt w with
          | Some w when w > 0 -> w
          | _ -> fail_at r ("bad $var width " ^ w)
        in
        let is_real = kind = "real" in
        (match Hashtbl.find_opt vars id with
        | Some first ->
            if first.width <> width || first.is_real <> is_real then
              invalid_arg "Vcd_oracle: identifier code redeclared differently"
        | None ->
            let reject msg = fail ~line ~column ~snippet:"$var" msg in
            if is_real && name <> Vcd.power_var_name then
              reject
                (Printf.sprintf "real variable %s is not the power variable %s" name
                   Vcd.power_var_name);
            if is_real && !power_declared then
              reject (Printf.sprintf "second real variable %s under code %s" name id);
            if is_real then power_declared := true;
            Hashtbl.replace vars id { name; width; is_real };
            var_order := id :: !var_order);
        skip_to_end ();
        decls ()
    | Some ("$date" | "$version" | "$scope" | "$upscope") ->
        skip_to_end ();
        decls ()
    | Some tok -> fail_at r ("unexpected declaration token " ^ tok)
  in
  decls ();
  let ids_in_order = List.rev !var_order in
  let wire_ids = List.filter (fun id -> not (Hashtbl.find vars id).is_real) ids_in_order in
  if wire_ids = [] then fail_at r "no wire variables declared";
  let signals =
    List.map
      (fun id ->
        let v = Hashtbl.find vars id in
        match Hashtbl.find_opt directions v.name with
        | Some Signal.Output -> Signal.output v.name v.width
        | Some Signal.Input | None -> Signal.input v.name v.width)
      wire_ids
  in
  let iface = Interface.create signals in
  let targets = Hashtbl.create 16 in
  List.iteri
    (fun index id ->
      let v = Hashtbl.find vars id in
      Hashtbl.replace targets id (Wire { index; width = v.width }))
    wire_ids;
  let has_power = ref false in
  List.iter
    (fun id ->
      if (Hashtbl.find vars id).is_real then begin
        has_power := true;
        Hashtbl.replace targets id Real
      end)
    ids_in_order;
  { iface; timescale = !timescale; targets; has_power = !has_power }

(* ---------- value-change section ---------- *)

type event =
  | Tick of { time : int; line : int; column : int }
  | Set of { index : int; value : Bits.t }
  | Set_power of float

type decode_ctx = { policy : Reader.unknown_policy; mutable unknowns : int }

let unknown_bits ctx r count what =
  if count > 0 then
    match ctx.policy with
    | Reader.Reject ->
        fail_at r (Printf.sprintf "unknown (x/z) bits in %s rejected by policy" what)
    | Reader.Zero -> ()
    | Reader.Count -> ctx.unknowns <- ctx.unknowns + count

let decode_scalar ctx r tok =
  if String.length tok < 2 then fail_at r ("bad value change " ^ tok);
  let b =
    match tok.[0] with
    | '1' -> true
    | '0' -> false
    | 'x' | 'X' | 'z' | 'Z' ->
        unknown_bits ctx r 1 ("scalar value " ^ tok);
        false
    | c -> fail_at r (Printf.sprintf "bad scalar value %c" c)
  in
  (b, String.sub tok 1 (String.length tok - 1))

let lookup_wire decls r id =
  match Hashtbl.find_opt decls.targets id with
  | Some (Wire { index; width }) -> (index, width)
  | Some Real -> fail_at r ("wire value change for real variable " ^ id)
  | None -> fail_at r ("value change for undeclared id " ^ id)

let decode_vector decls ctx r tok id =
  let bits = String.sub tok 1 (String.length tok - 1) in
  if bits = "" then fail_at r "empty vector value";
  let index, want = lookup_wire decls r id in
  let n = String.length bits in
  if n > want then
    fail_at r
      (Printf.sprintf "value %s is wider than the %d-bit variable %s" tok want id);
  let ext_unknown = match bits.[0] with 'x' | 'X' | 'z' | 'Z' -> true | _ -> false in
  let unknowns = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '0' | '1' -> ()
      | 'x' | 'X' | 'z' | 'Z' -> incr unknowns
      | c -> fail_at r (Printf.sprintf "bad vector digit %c in %s" c tok))
    bits;
  if ext_unknown then unknowns := !unknowns + (want - n);
  unknown_bits ctx r !unknowns ("vector value " ^ tok);
  let value = Bits.init ~width:want (fun i -> i < n && bits.[n - 1 - i] = '1') in
  Set { index; value }

let decode_real decls r tok id =
  let f =
    match float_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some f -> f
    | None -> fail_at r ("bad real value " ^ tok)
  in
  match Hashtbl.find_opt decls.targets id with
  | Some Real ->
      if not (Power_trace.valid_energy f) then
        fail_at r ("power value " ^ tok ^ " is not finite and non-negative");
      Set_power f
  | Some (Wire _) -> fail_at r ("real value for non-real id " ^ id)
  | None -> fail_at r ("value change for undeclared id " ^ id)

let run_body decls ctx r ~emit =
  let rec skip_comment () =
    match Reader.next_token r with
    | None -> fail_at r "unterminated $comment in value-change section"
    | Some "$end" -> ()
    | Some _ -> skip_comment ()
  in
  let value_id tok =
    match Reader.next_token r with
    | Some id -> id
    | None ->
        fail_at r (Printf.sprintf "value %s is not followed by an identifier code" tok)
  in
  let rec loop () =
    match Reader.next_token r with
    | None -> ()
    | Some tok ->
        (match tok.[0] with
        | '#' ->
            let time =
              match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
              | Some time when time >= 0 -> time
              | _ -> fail_at r ("bad timestamp " ^ tok)
            in
            let line, column = Reader.position r in
            emit (Tick { time; line; column })
        | '$' -> (
            match tok with
            | "$dumpvars" | "$end" | "$dumpall" | "$dumpon" | "$dumpoff" -> ()
            | "$comment" -> skip_comment ()
            | _ -> fail_at r ("unexpected command " ^ tok ^ " in value-change section"))
        | 'b' | 'B' ->
            let id = value_id tok in
            emit (decode_vector decls ctx r tok id)
        | 'r' | 'R' ->
            let id = value_id tok in
            emit (decode_real decls r tok id)
        | _ ->
            let b, id = decode_scalar ctx r tok in
            let index, want = lookup_wire decls r id in
            emit (Set { index; value = Bits.init ~width:want (fun i -> i = 0 && b) }));
        loop ()
  in
  loop ()

(* ---------- raw samples: one per distinct timestamp ---------- *)

type raw = {
  decls : declarations;
  samples : (int * Bits.t array * float) list;  (* time, values, power *)
  last_tick : int * int;  (* position of the last distinct timestamp *)
  stats : Reader.stats;
}

let raw ?(unknowns = Reader.Count) text =
  let r = Reader.of_string text in
  let decls = parse_declarations r in
  let ctx = { policy = unknowns; unknowns = 0 } in
  let current =
    Array.map (fun (s : Signal.t) -> Bits.zero s.Signal.width) (Interface.signals decls.iface)
  in
  let power = ref 0. and time = ref 0 and started = ref false and changes = ref 0 in
  let last_tick = ref (0, 0) in
  let out = ref [] in
  let emit_sample () = out := (!time, Array.copy current, !power) :: !out in
  let apply = function
    | Tick { time = t; line; column } ->
        if !started && t < !time then
          fail ~line ~column
            (Printf.sprintf "timestamp #%d goes backwards (previous #%d)" t !time)
        else if !started && t = !time then ()
        else begin
          if !started then emit_sample ();
          time := t;
          started := true;
          last_tick := (line, column)
        end
    | Set { index; value } ->
        current.(index) <- value;
        incr changes
    | Set_power f ->
        power := f;
        incr changes
  in
  run_body decls ctx r ~emit:apply;
  if !started then emit_sample ();
  let samples = List.rev !out in
  { decls;
    samples;
    last_tick = !last_tick;
    stats =
      { Reader.bytes = String.length text;
        samples = List.length samples;
        value_changes = !changes;
        unknowns_coerced = ctx.unknowns } }

(* ---------- full parse: infer the stride, expand gaps ---------- *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let parse ?unknowns ?period text =
  let raw = raw ?unknowns text in
  let samples = Array.of_list raw.samples in
  let n = Array.length samples in
  let time i = let t, _, _ = samples.(i) in t in
  let dmin = ref max_int and dmax = ref 0 and g = ref 0 in
  for i = 1 to n - 1 do
    let d = time i - time (i - 1) in
    if d < !dmin then dmin := d;
    if d > !dmax then dmax := d;
    g := gcd !g d
  done;
  let stride =
    match period with
    | Some p when p <= 0 -> invalid_arg "Vcd: sample period must be positive"
    | Some p -> p
    | None -> if !g = 0 then 1 else !g
  in
  let picks =
    if n <= 1 || (!dmin = stride && !dmax = stride) then List.init n Fun.id
    else begin
      let first = time 0 and last = time (n - 1) in
      (* Count the grid before walking it. *)
      let grid = ref 1 and t = ref first in
      while !t < last && !grid <= Vcd.max_samples do
        incr grid;
        t := !t + stride
      done;
      if !grid > Vcd.max_samples then begin
        let line, column = raw.last_tick in
        let span = last - first in
        let size = (span / stride) + if span mod stride = 0 then 1 else 2 in
        fail ~line ~column
          (Printf.sprintf
             "timestamps #%d..#%d at stride %d make %d samples, over the %d-sample limit"
             first last stride size Vcd.max_samples)
      end;
      let picks = ref [] and idx = ref 0 and t = ref first in
      for _ = 1 to !grid do
        while !idx + 1 < n && time (!idx + 1) <= !t do
          incr idx
        done;
        picks := !idx :: !picks;
        t := !t + stride
      done;
      List.rev !picks
    end
  in
  let b = Functional_trace.Builder.create raw.decls.iface in
  List.iter
    (fun i ->
      let _, values, _ = samples.(i) in
      Functional_trace.Builder.append b values)
    picks;
  let powers = Array.of_list (List.map (fun i -> let _, _, p = samples.(i) in p) picks) in
  let trace = Functional_trace.Builder.finish b in
  { Vcd.trace;
    power = (if raw.decls.has_power then Some (Power_trace.of_array powers) else None);
    timescale = raw.decls.timescale;
    stats = { raw.stats with Reader.samples = Functional_trace.length trace } }
