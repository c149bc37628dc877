(** The multi-session estimation engine behind [psmgen serve] — pure
    in-process logic, no sockets, so tests and the bench drive thousands
    of simulated clients directly.

    {2 Model}

    An engine owns a fleet of persisted models and a table of live
    sessions ({!Psm_flow.Estimate} each). Clients feed sessions through
    {!submit} (classified propositions + input Hamming distances) or
    {!vcd_chunk} (raw VCD text, classified server-side by
    {!Psm_mining.Sample_tracker}); feeding only enqueues. {!tick} is the scheduler's
    unit of work: every session with a pending observation advances
    exactly one cycle. Sessions are grouped by (model, mode); filter
    groups advance in {e one batched sparse sweep}
    ({!Psm_hmm.Filtering.Stream.sweep} over the model's shared CSC
    kernel), sim sessions step one by one through
    {!Psm_hmm.Multi_sim.Stepper.advance}, and groups split into shards of
    at most 128 sessions so each sweep's working set stays in cache.
    {!drain} ticks until idle.

    Each model's read-only contexts are built once, on the first session
    that needs them, and shared by all its sessions: the
    {!Psm_hmm.Filtering.t} of filter sessions and the
    {!Psm_hmm.Multi_sim.Plan.t} of sim sessions. A sim session then owns
    O(m) words for m states plus a copy of each A row it has banned
    since its last successful exit, and its steps that stay in a state,
    advance a cascade or exit through a transition allocate nothing. No
    session writes the model.

    {2 Determinism}

    The schedule is a function of the session set alone: sessions advance
    in open order within a group, groups in first-opened order — so
    served outputs are independent of client arrival interleaving (the
    batched sweep is bit-identical to stepping each session alone, which
    is itself bit-identical to offline inference).

    {2 Sessions are server-owned}

    A session survives its client's disconnect — it is keyed by id, not
    by connection — until {!close_session} or {!evict_idle} (driven by
    the injected clock, so tests inject time instead of sleeping). *)

type t

type stats = {
  sessions : int;
  cycles_served : int;
  ticks : int;
  sweeps : int;
  opened : int;
  evicted : int;
  closed : int;
}

type session_stats = {
  cycles : int;
  wrong_instants : int;
  wsp : float;
  resync_events : int;
  log_likelihood : float;
}

type model_info = { name : string; states : int; props : int }

val create :
  ?idle_timeout:float ->
  ?now:(unit -> float) ->
  (string * Psm_flow.Persist.model) list ->
  t
(** [idle_timeout] (default 300 s; <= 0 disables) bounds how long an
    unfed session survives; [now] (default [Unix.gettimeofday]) is the
    eviction clock.
    @raise Invalid_argument on duplicate model names. *)

val models : t -> model_info list
val session_count : t -> int
val has_session : t -> string -> bool

val open_session :
  t -> id:string -> model:string -> mode:Psm_flow.Estimate.mode -> (unit, string) result

val close_session : t -> id:string -> (unit, string) result

val submit : t -> id:string -> (int option * float) array -> (int, string) result
(** Enqueue (proposition, input Hamming) pairs, one per cycle. Rejects
    the whole batch, queueing nothing, on an out-of-vocabulary
    proposition or an input Hamming distance that is negative, NaN or
    infinite; the error names the first bad entry. Returns the cycles
    enqueued. *)

val max_vcd_upload : int
(** Bytes one VCD upload may buffer before its final chunk (64 MiB). *)

val vcd_chunk : t -> id:string -> chunk:string -> last:bool -> (int, string) result
(** Buffer a VCD fragment; [last:true] reads the whole upload in one
    streaming pass ({!Psm_trace.Vcd.read_upload}) and enqueues every
    cycle's proposition code and input Hamming distance, exactly what
    {!Psm_trace.Vcd.parse} of the upload walked by
    {!Psm_mining.Sample_tracker.iter_runs} gives. Each upload is its own
    trace: its first cycle has distance 0, whatever the session received
    before. Returns cycles enqueued (0 while buffering).

    Cost: no trace is built. Each distinct timestamp's held sample is
    classified by the session's own {!Psm_mining.Sample_tracker} as it
    is read, into per-timestamp records that timestamp gaps expand onto
    once the document has parsed, so nothing is queued from a bad
    upload. Every upload's declarations are parsed. What an upload holds
    is bounded by the document, and storage a large upload grew is
    dropped after it.

    Errors, first that applies: an upload that would grow past
    {!max_vcd_upload} bytes; the reader's positioned error, the same
    text and position as {!Psm_trace.Vcd.parse} of the upload; an
    interface mismatch against the session's model, for a document that
    parses. Every error is per-session: nothing is queued, the buffer is
    reset and the session remains usable. *)

val pending : t -> id:string -> ((int * float) array, string) result
(** The queued (proposition code, -1 = unknown; input Hamming distance)
    pairs not yet ticked, oldest first, left in the queue. *)

val tick : t -> int
(** One scheduler step: every session with a pending observation advances
    one cycle (filter shards in one batched sweep each). Returns sessions advanced; 0 = nothing pending. *)

val drain : t -> int
(** {!tick} until idle; total cycles served. *)

val available_results : t -> id:string -> (int, string) result

val take_results : t -> id:string -> count:int -> ((float * int) array, string) result
(** Pop up to [count] (power, PSM state id) results in cycle order. *)

val session_stats : t -> id:string -> (session_stats, string) result
val stats : t -> stats

val evict_idle : t -> string list
(** Drop sessions idle past the timeout; returns their ids (sorted). *)

val checkpoint_version : string
(** = {!Checkpoint.version}. *)

val checkpoint : t -> id:string -> (string, string) result
(** A self-contained resumable blob in the {!Checkpoint} wire format
    (explicit field-by-field JSON — never [Marshal] bytes). Restoring it
    — in this engine or a fresh one holding the same model — resumes
    bit-identically to never having stopped. *)

val restore_session : t -> id:string -> string -> (unit, string) result
(** Checkpoints arrive from clients and are treated as hostile: the blob
    is validated structurally ({!Checkpoint.decode}) and then
    semantically against the named model ({!Psm_flow.Estimate.import});
    anything that does not fit earns an [Error], never daemon state. *)
