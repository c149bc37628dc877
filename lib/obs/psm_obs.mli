(** Zero-third-party-dependency observability: hierarchical spans, counters
    and histograms, exported as a text summary, JSON, or a Chrome
    trace-event file (loadable in [chrome://tracing] and Perfetto).

    {2 Sink model}

    There is one global switch. When {e disabled} (the default) every
    instrumentation point — {!span}, {!count}, {!observe}, {!gc_snapshot} —
    costs exactly one atomic load and a branch: no allocation, no clock
    read, no buffer write. [span name f] on the disabled sink is
    observably [f ()]. When {e enabled} (via {!enable} or the [PSM_OBS=1]
    environment variable, read at module initialization) events are
    appended to a per-domain buffer with no locking on the record path.

    {2 Domain safety}

    Each domain records into its own buffer (domain-local storage), so
    {!Psm_par}'s helper domains can record concurrently with the calling
    domain. Buffers are registered globally and outlive their domain (each
    fan-out that records adds at most its width minus one buffers);
    {!snapshot} merges them into one canonical summary. The merge is deterministic in
    the summary it produces: counters and histograms combine
    commutatively, and span events are sorted by (start time, recording
    domain, per-domain sequence) — never by registry or hashtable order.
    Take snapshots at quiescent points (after a parallel section has
    joined); snapshotting while workers are actively recording may miss
    in-flight events, though it never crashes.

    {2 Span taxonomy}

    Dotted names group phases: [flow.*] (pipeline stages), [mine.*]
    (vocabulary mining and proposition classification), [generate.*] (the
    XU segmentation and chain builder), [combine.*] (simplify / join /
    optimize), [hmm.*] (HMM construction and simulation), [ingest.*]
    (trace readers), [analyze.*] (static-analysis rules). *)

(** {1 The sink switch} *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** {1 Recording} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] on the monotonic-per-domain clock and
    records a completed span. Nestable; the recorded depth is the nesting
    level at entry. Exception-safe: the span is closed and recorded even
    when [f] raises (the exception propagates), so partial profiles
    survive failing pipeline stages. *)

val count : string -> int -> unit
(** Add to a named counter (created at zero). *)

val incr : string -> unit
(** [incr name] is [count name 1]. *)

val observe : string -> float -> unit
(** Record one observation into a named histogram. Count, mean, stddev,
    min and max are exact; p50/p99 come from 64 power-of-two buckets
    (each observation counted by the smallest power of two above it), so
    a reported percentile overestimates by at most 2x and is clamped to
    the observed range. *)

val gc_snapshot : string -> unit
(** Record allocation telemetry from [Gc.quick_stat] into histograms
    [gc.<label>.heap_words], [gc.<label>.allocated_words],
    [gc.<label>.minor_collections] and [gc.<label>.major_collections]. *)

val reset : unit -> unit
(** Clear every registered buffer. Call between profiled runs. *)

(** {1 Snapshots} *)

type span_event = {
  span_name : string;
  domain : int;
  seq : int;
  depth : int;
  start_us : float;
  dur_us : float;
}

type span_stat = { total_s : float; calls : int; mean_s : float; max_s : float }
type hist_stat = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float; (** median, from 64 power-of-two buckets: <= 2x true value *)
  p99 : float; (** tail latency, same bucket bound, clamped to [min, max] *)
}

type summary = {
  events : span_event list;
  span_stats : (string * span_stat) list;
  counters : (string * float) list;
  histograms : (string * hist_stat) list;
}

val snapshot : unit -> summary
(** Merge all per-domain buffers into one canonical summary (see the
    determinism note above). Does not clear the buffers. *)

val span_totals : unit -> (string * float) list
(** [(name, total seconds)] per distinct span name, sorted by name. *)

val span_total : string -> float
(** Total seconds recorded under one span name (0. if never recorded). *)

(** {1 Exporters} *)

val to_text : summary -> string
val to_json : summary -> string

val to_chrome : summary -> string
(** Chrome trace-event JSON: an object with a [traceEvents] array holding
    one ["X"] (complete) event per span — [ts]/[dur] in microseconds,
    [ts] rebased to the earliest event, [tid] = recording domain — plus
    thread-name metadata and one final ["C"] event per counter. *)

val write_chrome_file : string -> unit
(** [to_chrome (snapshot ())] written to a file. *)

val write_json_file : string -> unit
