(** CSV import/export of functional and power traces.

    Layout: a header row [time,<sig>,...,<sig>[,power]] where each signal
    column is titled [name:width:dir] (dir ∈ {in, out}); one row per
    instant; signal values rendered as hexadecimal. This gives a
    spreadsheet-friendly counterpart to the VCD format.

    The reader streams rows through {!Reader.t} — one line is live at a
    time on top of the trace being built. *)

val to_string : ?power:Power_trace.t -> Functional_trace.t -> string

val write_file : ?power:Power_trace.t -> string -> Functional_trace.t -> unit

exception Parse_error of Reader.error

type parsed = {
  trace : Functional_trace.t;
  power : Power_trace.t option;
  stats : Reader.stats;
}

val read : Reader.t -> parsed
(** Raises {!Parse_error} (with line/column and the offending row) on
    malformed input. *)

val parse : string -> Functional_trace.t * Power_trace.t option
(** [read] over an in-memory string, keeping the historical signature. *)

val parse_file : string -> Functional_trace.t * Power_trace.t option
(** [read] over a channel — constant-memory row streaming. *)
