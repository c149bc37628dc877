(* The last two tokens returned by [next_span], as [start, stop) in
   [bytes] (the reader's buffer), or -1 when the last token came from
   another lexer; a refill keeps both in the buffer. [line] and [column]
   are where the last token of any lexer started. *)
type span = {
  mutable bytes : bytes;
  mutable start : int;
  mutable stop : int;
  mutable prev_start : int;
  mutable prev_stop : int;
  mutable line : int;
  mutable column : int;
}

type t = {
  refill : bytes -> int -> int -> int;
      (* [refill buf off len] reads at most [len] bytes into [buf] at
         [off]; 0 means EOF *)
  mutable buf : bytes;
  mutable pos : int;  (* next unread byte in [buf] *)
  mutable len : int;  (* valid bytes in [buf] *)
  mutable eof : bool;
  mutable base : int;  (* input offset of [buf.[0]] *)
  mutable cur_line : int;
  mutable line_start : int;  (* input offset of the current line's first byte *)
  tok_buf : Buffer.t;
  mutable last_lexeme : string;
  sp : span;
}

let make ~buf ~len ~eof ~refill =
  { refill;
    buf;
    pos = 0;
    len;
    eof;
    base = 0;
    cur_line = 1;
    line_start = 0;
    tok_buf = Buffer.create 64;
    last_lexeme = "";
    sp =
      { bytes = buf; start = -1; stop = -1; prev_start = -1; prev_stop = -1; line = 1; column = 1 }
  }

let of_channel ?(buffer = 65536) ic =
  let buf = Bytes.create (max 1 buffer) in
  make ~buf ~len:0 ~eof:false ~refill:(fun b off len -> input ic b off len)

let no_refill _ _ _ = 0

(* In-memory readers start at EOF: there is nothing to refill, and the
   bytes under [buf] are never written. *)
let of_bytes buf len =
  if len < 0 || len > Bytes.length buf then invalid_arg "Reader.of_bytes";
  make ~buf ~len ~eof:true ~refill:no_refill

let of_string s = of_bytes (Bytes.unsafe_of_string s) (String.length s)

(* Read more input after [len], first sliding the bytes from [keep] on to
   the front of the buffer (and doubling it when they fill it). *)
let fill t ~keep =
  if t.eof then false
  else begin
    if keep > 0 then begin
      let live = t.len - keep in
      Bytes.blit t.buf keep t.buf 0 live;
      t.base <- t.base + keep;
      t.pos <- t.pos - keep;
      t.len <- live;
      let sp = t.sp in
      if sp.start >= 0 then begin
        sp.start <- sp.start - keep;
        sp.stop <- sp.stop - keep
      end;
      if sp.prev_start >= 0 then begin
        sp.prev_start <- sp.prev_start - keep;
        sp.prev_stop <- sp.prev_stop - keep
      end
    end;
    if t.len = Bytes.length t.buf then begin
      let bigger = Bytes.create (2 * Bytes.length t.buf) in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger;
      t.sp.bytes <- bigger
    end;
    let n = t.refill t.buf t.len (Bytes.length t.buf - t.len) in
    if n = 0 then begin
      t.eof <- true;
      false
    end
    else begin
      t.len <- t.len + n;
      true
    end
  end

let peek t =
  if t.pos < t.len || fill t ~keep:t.pos then Some (Bytes.unsafe_get t.buf t.pos)
  else None

let advance t c =
  t.pos <- t.pos + 1;
  if c = '\n' then begin
    t.cur_line <- t.cur_line + 1;
    t.line_start <- t.base + t.pos
  end

let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

(* The character lexers copy their token into [tok_buf]; any span they
   leave behind is stale. *)
let drop_spans t =
  let sp = t.sp in
  sp.start <- -1;
  sp.stop <- -1;
  sp.prev_start <- -1;
  sp.prev_stop <- -1

let mark_token t =
  t.sp.line <- t.cur_line;
  t.sp.column <- t.base + t.pos - t.line_start + 1;
  Buffer.clear t.tok_buf

let finish_token t =
  let s = Buffer.contents t.tok_buf in
  t.last_lexeme <- s;
  Some s

let next_token t =
  drop_spans t;
  let rec skip () =
    match peek t with
    | Some c when is_space c ->
        advance t c;
        skip ()
    | other -> other
  in
  match skip () with
  | None -> None
  | Some _ ->
      mark_token t;
      let rec take () =
        match peek t with
        | Some c when not (is_space c) ->
            Buffer.add_char t.tok_buf c;
            advance t c;
            take ()
        | _ -> ()
      in
      take ();
      finish_token t

let next_sexp_token t =
  drop_spans t;
  let rec skip () =
    match peek t with
    | Some c when is_space c ->
        advance t c;
        skip ()
    | other -> other
  in
  match skip () with
  | None -> None
  | Some (('(' | ')') as c) ->
      mark_token t;
      advance t c;
      Buffer.add_char t.tok_buf c;
      finish_token t
  | Some _ ->
      mark_token t;
      let rec take () =
        match peek t with
        | Some c when (not (is_space c)) && c <> '(' && c <> ')' ->
            Buffer.add_char t.tok_buf c;
            advance t c;
            take ()
        | _ -> ()
      in
      take ();
      finish_token t

let next_line t =
  drop_spans t;
  match peek t with
  | None -> None
  | Some _ ->
      mark_token t;
      let rec take () =
        match peek t with
        | None -> ()
        | Some '\n' -> advance t '\n'
        | Some c ->
            Buffer.add_char t.tok_buf c;
            advance t c;
            take ()
      in
      take ();
      let n = Buffer.length t.tok_buf in
      if n > 0 && Buffer.nth t.tok_buf (n - 1) = '\r' then
        Buffer.truncate t.tok_buf (n - 1);
      finish_token t

(* ---------- span scanning ---------- *)

(* Everything from the older kept token on survives a refill. *)
let keep_from t =
  let sp = t.sp in
  if sp.prev_start >= 0 then sp.prev_start else if sp.start >= 0 then sp.start else t.pos

(* Top-level loops over a local buffer and index: no closure and no
   field traffic per byte. Every separator is at most ' ', so one
   comparison settles most bytes. *)
let rec space_stop t buf len i =
  if i < len then
    let c = Bytes.unsafe_get buf i in
    if c > ' ' then i
    else
      match c with
      | '\n' ->
          t.cur_line <- t.cur_line + 1;
          t.line_start <- t.base + i + 1;
          space_stop t buf len (i + 1)
      | ' ' | '\t' | '\r' -> space_stop t buf len (i + 1)
      | _ -> i
  else i

let rec token_stop buf len i =
  if i < len then
    let c = Bytes.unsafe_get buf i in
    if c > ' ' then token_stop buf len (i + 1)
    else
      match c with ' ' | '\t' | '\r' | '\n' -> i | _ -> token_stop buf len (i + 1)
  else i

(* Eight bytes at a time. The word test flags the bytes below 0x21, and
   its lowest flag is always a true one (borrows only run upwards), so
   the first such byte is found with one multiply: [m land (-m)] keeps
   the lowest flag, at bit [8k + 7], and the multiply brings [k] to the
   top byte. That byte ends the token when it is a separator; another
   control byte is part of the token, and [token_stop] goes on from it. *)
let rec token_words buf len i =
  if i + 8 > len then token_stop buf len i
  else
    let w = Bytes.get_int64_le buf i in
    let m =
      Int64.logand
        (Int64.logand (Int64.sub w 0x2121212121212121L) (Int64.lognot w))
        0x8080808080808080L
    in
    if Int64.equal m 0L then token_words buf len (i + 8)
    else
      let low = Int64.shift_right_logical (Int64.logand m (Int64.neg m)) 7 in
      let k = Int64.to_int (Int64.shift_right_logical (Int64.mul low 0x0001020304050607L) 56) in
      match Bytes.unsafe_get buf (i + k) with
      | ' ' | '\t' | '\r' | '\n' -> i + k
      | _ -> token_stop buf len (i + k + 1)

let rec skip_space t =
  let i = space_stop t t.buf t.len t.pos in
  t.pos <- i;
  i < t.len || (fill t ~keep:(keep_from t) && skip_space t)

let rec token_end t =
  t.pos <- token_words t.buf t.len t.pos;
  if t.pos = t.len && fill t ~keep:(keep_from t) then token_end t

let next_span t =
  (* [skip_space]'s first step, in line. *)
  let i = space_stop t t.buf t.len t.pos in
  t.pos <- i;
  (i < t.len || (fill t ~keep:(keep_from t) && skip_space t))
  && begin
       let sp = t.sp in
       let start = t.pos in
       sp.line <- t.cur_line;
       sp.column <- t.base + start - t.line_start + 1;
       sp.prev_start <- sp.start;
       sp.prev_stop <- sp.stop;
       sp.start <- start;
       (* A token that ends inside the buffer, the usual case, needs no
          refill. *)
       let stop = token_words t.buf t.len start in
       if stop < t.len then t.pos <- stop
       else begin
         t.pos <- stop;
         if fill t ~keep:(keep_from t) then token_end t
       end;
       sp.stop <- t.pos;
       true
     end

let span t = t.sp

let position t = (t.sp.line, t.sp.column)
let line t = t.sp.line
let column t = t.sp.column
let bytes_read t = t.base + t.pos

let lexeme t =
  let sp = t.sp in
  if sp.start >= 0 then Bytes.sub_string t.buf sp.start (sp.stop - sp.start) else t.last_lexeme

type error = { line : int; column : int; message : string; snippet : string }

let error_at t message =
  let snippet =
    let s = lexeme t in
    if String.length s > 60 then String.sub s 0 57 ^ "..." else s
  in
  { line = t.sp.line; column = t.sp.column; message; snippet }

let error_to_string e =
  Printf.sprintf "line %d, column %d: %s%s" e.line e.column e.message
    (if e.snippet = "" then "" else Printf.sprintf " (near %S)" e.snippet)

type unknown_policy = Zero | Reject | Count

type stats = {
  bytes : int;
  samples : int;
  value_changes : int;
  unknowns_coerced : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d samples, %d value changes, %d unknown bits coerced, %.2f MiB" s.samples
    s.value_changes s.unknowns_coerced
    (float_of_int s.bytes /. (1024. *. 1024.))
