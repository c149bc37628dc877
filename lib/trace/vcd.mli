(** Value Change Dump (IEEE 1364) writer and streaming reader.

    The writer emits a standard two-state VCD with one [$var] per
    interface signal, plus an optional [real] variable carrying the
    per-cycle dynamic energy, so a functional trace and its power trace
    travel in a single artifact that standard waveform viewers can open.
    It appends straight to a [Buffer.t]; only power values go through
    [Printf] (["%.17g"], so they read back bit-exact).

    The reader is one span scanner ({!Reader.next_span}) that works in
    the reader's buffer. Declaration keywords are compared in place, and
    only the tokens a declaration keeps (names, codes, widths) are
    copied. In the value-change section no token string is made,
    identifier codes resolve through a table built from
    the header (one-character codes index an array), [#digits]
    timestamps and vector digits are decoded in place, and each change
    is applied straight to the held sample. An instant with no value
    change shares the previous instant's sample array and extends its
    run, with no compare and no copy; an instant with changes gets one
    new array. A channel-backed read never materializes the file as a
    string or token list. {!read}, {!parse}, {!parse_file}, {!stream}
    and {!read_upload} all run this one sequential scanner. It implements real VCD
    semantics, not just the writer's subset:

    - timestamps are {e decoded}, values are held across gaps, and one
      sample is produced per sampling-grid instant (stride = explicit
      [?period] or the GCD of the timestamp deltas); time going backwards
      is a {!Parse_error};
    - 4-state values follow the spec: undersized vectors left-extend with
      [x]/[z] when the leftmost digit is [x]/[z] (0 otherwise), and every
      unknown bit is routed through the {!Reader.unknown_policy};
    - a repeated identifier code of the same width and kind aliases its
      first declaration (IEEE 1364 aliasing); a duplicate signal name
      under another code, or a width above {!max_width}, is a
      {!Parse_error} at its [$var];
    - gap expansion is sized before it runs: a grid of more than
      {!max_samples} instants is a {!Parse_error} at the last timestamp;
    - errors carry line/column positions and the offending lexeme.

    Malformed input raises {!Parse_error} and nothing else. *)

val max_width : int
(** Widest [$var] the reader accepts: 65,536 bits. *)

val max_samples : int
(** Most samples gap expansion may produce: 2{^24}. A trace whose
    timestamps already sit on a uniform grid is not expanded and not
    bounded. *)

val write :
  ?timescale:string ->
  ?power:Power_trace.t ->
  Buffer.t ->
  Functional_trace.t ->
  unit
(** [write buf trace] appends the VCD text to [buf]. [timescale] defaults to
    ["1ns"]. When [power] is given it must have the same length as the
    trace. Only value *changes* are dumped after the initial [$dumpvars]
    block, per the VCD convention. *)

val to_string : ?timescale:string -> ?power:Power_trace.t -> Functional_trace.t -> string

val write_file :
  ?timescale:string -> ?power:Power_trace.t -> string -> Functional_trace.t -> unit

exception Parse_error of Reader.error

type parsed = {
  trace : Functional_trace.t;
  power : Power_trace.t option;
  timescale : string;
  stats : Reader.stats;
}

val read : ?unknowns:Reader.unknown_policy -> ?period:int -> Reader.t -> parsed
(** Stream a full VCD out of [r]. Signal directions cannot be recovered
    from VCD (which has no port-direction concept) unless the writer's
    [$comment directions:] block is present; wires default to inputs.
    The one real variable, which must be named {!power_var_name}
    ([__power__]; aliases of its code may have any name), becomes the
    power trace; any other real variable is a {!Parse_error} naming it.
    [period] forces the sampling stride; otherwise it is the GCD of the
    timestamp deltas. Raises {!Parse_error} (with
    position and snippet) on malformed input, backwards time, or — under
    [~unknowns:Reject] — any [x]/[z] bit. *)

val parse : ?unknowns:Reader.unknown_policy -> ?period:int -> string -> parsed
(** {!read} over an in-memory string, which is walked in place without
    a copy. *)

val parse_file : ?unknowns:Reader.unknown_policy -> ?period:int -> string -> parsed
(** {!read} over a channel: constant-memory ingestion of files of any
    length (plus the trace being built). *)

(** {1 Constant-memory streaming} *)

type header = { interface : Interface.t; timescale : string; has_power : bool }

val stream :
  ?unknowns:Reader.unknown_policy ->
  Reader.t ->
  init:(header -> unit) ->
  sample:(time:int -> Psm_bits.Bits.t array -> power:float -> unit) ->
  Reader.stats
(** Push-mode reading: [init] receives the declared header (checked as
    {!read} checks it, power variable included), then [sample]
    is called once per distinct timestamp (raw, un-resampled — gaps are
    the caller's business) with the held signal values and latest power.
    The value array is reused between calls and must not be retained.
    Nothing proportional to the trace length is allocated, which is what
    the bench harness uses to demonstrate O(#signals) ingestion. *)

(** {1 Uploads}

    Whole in-memory documents, read one after another by one client (the
    serve engine's VCD uploads), with no trace built: each distinct
    timestamp's held sample goes to a callback, and the document's
    sampling grid is expanded on the caller's per-timestamp records. *)

type upload
(** A client's reader state, reused from one document to the next: the
    timestamp storage and the power-token cache. *)

val kept_records : int
(** 4,096: per-timestamp storage an {!upload} grew past this many
    records is dropped after its document. A caller that keeps per-instant
    records of its own beside an upload sizes them by the same bound. *)

val upload : unit -> upload

val read_upload :
  upload ->
  bytes ->
  int ->
  interface:Interface.t ->
  instant:(Psm_bits.Bits.t array -> unit) ->
  grid:(int -> int -> unit) ->
  (bool, Reader.error) result
(** [read_upload u b len ~interface ~instant ~grid] reads the document in
    [b]'s first [len] bytes, which must not change during the call, with
    the declarations parsed as {!read} parses them. Then:
    - The declared signals are compared with [interface] (as
      {!Interface.equal} would compare the interface {!read} builds from
      them, which is not built). When they differ, the rest of the
      document is still checked, but [instant] and [grid] are not
      called, and the result is [Ok false].
    - [instant row] is called with the held values ([row] is reused:
      read it, never keep or write it) at the first distinct timestamp
      and at each later one where a value change was applied; the
      timestamps in between hold the row it saw last.
    - Once the whole document has been read and its sampling grid sized
      (as {!read} does with no [period]), [grid k reps] is called for
      each call [k] of [instant] (from 0, in order): the next [reps] (at
      least 1) samples of the resampled trace hold that call's row, and
      only the first of them can differ from the sample before.
    Malformed input returns the {!Parse_error} that {!parse} of the same
    bytes raises, before [grid] is called; nothing else is raised. Power
    values are checked as {!read} checks them, then dropped; [x]/[z] bits
    read as 0. *)

(** {1 Writer internals exposed for tests} *)

val power_var_name : string
(** ["__power__"]: the name the writer gives the power variable and the
    only real variable the reader accepts. *)

val id_code : int -> string
(** Identifier code for the [n]-th variable ('!'..'~', then multi-char). *)
