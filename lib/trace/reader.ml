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
  mutable tok_line : int;
  mutable tok_column : int;
  mutable last_lexeme : string;
  (* The last two tokens returned by [next_span], as [start, stop) in
     [buf], or -1 when the last token came from another lexer. A refill
     keeps both in the buffer. *)
  mutable span_start : int;
  mutable span_stop : int;
  mutable prev_start : int;
  mutable prev_stop : int;
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
    tok_line = 1;
    tok_column = 1;
    last_lexeme = "";
    span_start = -1;
    span_stop = -1;
    prev_start = -1;
    prev_stop = -1 }

let of_channel ?(buffer = 65536) ic =
  let buf = Bytes.create (max 1 buffer) in
  make ~buf ~len:0 ~eof:false ~refill:(fun b off len -> input ic b off len)

(* In-memory readers start at EOF: there is nothing to refill, and the
   string under [buf] is never written. *)
let of_string s =
  make ~buf:(Bytes.unsafe_of_string s) ~len:(String.length s) ~eof:true
    ~refill:(fun _ _ _ -> 0)

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
      if t.span_start >= 0 then begin
        t.span_start <- t.span_start - keep;
        t.span_stop <- t.span_stop - keep
      end;
      if t.prev_start >= 0 then begin
        t.prev_start <- t.prev_start - keep;
        t.prev_stop <- t.prev_stop - keep
      end
    end;
    if t.len = Bytes.length t.buf then begin
      let bigger = Bytes.create (2 * Bytes.length t.buf) in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
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
  t.span_start <- -1;
  t.span_stop <- -1;
  t.prev_start <- -1;
  t.prev_stop <- -1

let mark_token t =
  t.tok_line <- t.cur_line;
  t.tok_column <- t.base + t.pos - t.line_start + 1;
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
  if t.prev_start >= 0 then t.prev_start
  else if t.span_start >= 0 then t.span_start
  else t.pos

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

(* Eight bytes at a time while none of them is below 0x21: the word test
   flags a word exactly when one of its bytes is, and [token_stop] then
   settles it byte by byte. *)
let rec token_words buf len i =
  if i + 8 > len then token_stop buf len i
  else
    let w = Bytes.get_int64_le buf i in
    if
      Int64.equal
        (Int64.logand
           (Int64.logand (Int64.sub w 0x2121212121212121L) (Int64.lognot w))
           0x8080808080808080L)
        0L
    then token_words buf len (i + 8)
    else token_stop buf len i

let rec skip_space t =
  t.pos <- space_stop t t.buf t.len t.pos;
  t.pos < t.len || (fill t ~keep:(keep_from t) && skip_space t)

let rec token_end t =
  t.pos <- token_words t.buf t.len t.pos;
  if t.pos = t.len && fill t ~keep:(keep_from t) then token_end t

let next_span t =
  skip_space t
  && begin
       t.tok_line <- t.cur_line;
       t.tok_column <- t.base + t.pos - t.line_start + 1;
       t.prev_start <- t.span_start;
       t.prev_stop <- t.span_stop;
       t.span_start <- t.pos;
       token_end t;
       t.span_stop <- t.pos;
       true
     end

let span_bytes t = t.buf
let span_start t = t.span_start
let span_stop t = t.span_stop
let prev_start t = t.prev_start
let prev_stop t = t.prev_stop

let position t = (t.tok_line, t.tok_column)
let line t = t.tok_line
let column t = t.tok_column
let bytes_read t = t.base + t.pos

let lexeme t =
  if t.span_start >= 0 then Bytes.sub_string t.buf t.span_start (t.span_stop - t.span_start)
  else t.last_lexeme

type error = { line : int; column : int; message : string; snippet : string }

let error_at t message =
  let snippet =
    let s = lexeme t in
    if String.length s > 60 then String.sub s 0 57 ^ "..." else s
  in
  { line = t.tok_line; column = t.tok_column; message; snippet }

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
