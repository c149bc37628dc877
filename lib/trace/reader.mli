(** Shared incremental lexer for the trace readers (VCD, CSV, SAIF) and
    the model loader.

    A {!t} pulls bytes from an [in_channel] through a buffer (or walks an
    in-memory string without copying it) and tracks the line/column
    position and the total byte count as it goes. It offers two kinds of
    lexing:

    - {e copying} lexers ({!next_token}, {!next_sexp_token},
      {!next_line}) that return each token as a fresh string — used by
      CSV, SAIF, the model loader and the tests' VCD token oracle;
    - a {e span} scanner ({!next_span}) that returns no string at all:
      the token is left in place in the reader's own buffer and exposed
      as a [start, stop) span. When a refill lands mid-token, the partial
      token (and the token before it) slide to the front of the buffer
      first, and the buffer doubles when they fill it, so a span is
      always contiguous. Columns are computed from the offset of the
      current line's start, so scanning a byte costs one comparison, and
      a token's end is found eight bytes at a time. A VCD is read this
      way, declarations included, in one sequential pass from the start
      of the input.

    Live memory is the buffer plus the token being assembled — a reader
    over a channel never materializes the file as a string or a token
    list, so ingestion of arbitrarily long traces runs in O(#signals)
    space on top of whatever the consumer itself retains.

    The reader also owns the two pieces of policy every trace format
    shares: structured {!error}s (position + snippet, wrapped by each
    format's [Parse_error]) and the {!unknown_policy} for 4-state
    values, together with the per-parse ingestion {!stats} record. *)

type t

val of_channel : ?buffer:int -> in_channel -> t
(** Stream from a channel through a [buffer]-byte window (default
    64 KiB). The channel stays owned by the caller. *)

val of_string : string -> t
(** Walk an in-memory string. No copy is made. *)

val of_bytes : bytes -> int -> t
(** [of_bytes b len] walks [b]'s first [len] bytes in place, like
    {!of_string}; [b] must not change while the reader is in use. *)

(** {1 Lexing} *)

val next_token : t -> string option
(** The next whitespace-delimited token, or [None] at end of input.
    Never returns the empty string. *)

val next_sexp_token : t -> string option
(** Like {!next_token} but ['('] and [')'] are delimiters returned as
    single-character tokens — the lexing mode of the SAIF reader. *)

val next_line : t -> string option
(** The next line (without the trailing newline; a trailing ['\r'] is
    dropped), or [None] at end of input. *)

(** {1 Span scanning} *)

val next_span : t -> bool
(** Advance to the next whitespace-delimited token without copying it,
    or return [false] at end of input. The token and the one before it
    are read from {!span}. *)

type span = private {
  mutable bytes : bytes;  (** the reader's buffer, which holds both tokens *)
  mutable start : int;  (** the token is [bytes] from [start] to [stop] (exclusive) *)
  mutable stop : int;
  mutable prev_start : int;
      (** the token before it, from [prev_start] to [prev_stop]; -1 when
          it came from a copying lexer *)
  mutable prev_stop : int;
  mutable line : int;  (** = {!line} *)
  mutable column : int;  (** = {!column} *)
}
(** The spans and the token position as one record that every lexer
    call updates in place: a scanner takes it once and reads its fields,
    with no call per token. Both spans, and [bytes] itself, are valid
    until the next call on the reader: read [bytes] again after every
    call, and never write to it. At end of input the spans keep pointing
    at the last token. *)

val span : t -> span
(** The reader's span record, the same value for the reader's life. *)

val lexeme : t -> string
(** A copy of the last token returned by any of the lexers. *)

(** {1 Positions, errors, totals} *)

val position : t -> int * int
(** Line and column (both 1-based) where the most recently returned
    token or line started. *)

val line : t -> int
(** First component of {!position}. *)

val column : t -> int
(** Second component of {!position}. *)

val bytes_read : t -> int
(** Total bytes consumed so far; after the input is exhausted this is
    the ingested size. *)

type error = { line : int; column : int; message : string; snippet : string }
(** A structured parse error: where it happened and the offending
    lexeme. Each format wraps this in its own [Parse_error]. *)

val error_at : t -> string -> error
(** An {!error} at the position of the last token/line returned, with
    that lexeme as the snippet. *)

val error_to_string : error -> string
(** ["line L, column C: message (near \"snippet\")"]. *)

(** {1 Shared reader policy} *)

type unknown_policy =
  | Zero   (** coerce [x]/[z] to 0 silently (legacy behaviour) *)
  | Reject (** raise the format's [Parse_error] on any [x]/[z] *)
  | Count  (** coerce to 0 and tally the bits in {!stats} (default) *)

type stats = {
  bytes : int;  (** bytes ingested *)
  samples : int;  (** simulation instants produced *)
  value_changes : int;  (** value-change records applied *)
  unknowns_coerced : int;  (** unknown ([x]/[z]) bits coerced to 0 *)
}
(** Per-parse ingestion statistics. *)

val pp_stats : Format.formatter -> stats -> unit
