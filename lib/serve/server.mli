(** The [psmgen serve] daemon: a single-threaded select loop carrying the
    line-delimited JSON protocol ({!Protocol}) over a Unix-domain or
    loopback TCP socket, in front of an {!Engine}.

    Frames are processed in {e waves}: per wave, each connection executes
    its leading non-stream requests immediately and contributes at most
    one stream request ([observe] / final [vcd]); one engine drain then
    advances every contributor together — this is where concurrent
    clients on the same model merge into batched sparse sweeps — and the
    deferred responses are emitted in per-connection request order. A
    malformed frame earns an error response on that frame alone; a
    dropped connection closes the transport but leaves the client's
    sessions live in the engine (reconnect and keep observing, or let the
    idle timeout evict them). *)

type listen = [ `Tcp of int | `Unix of string ]
(** [`Tcp port] binds loopback ([port] 0 picks an ephemeral port — read it
    back with {!port}); [`Unix path] binds a filesystem socket (an
    existing file at [path] is replaced, and removed again on exit). *)

type t

val create :
  ?idle_timeout:float ->
  ?now:(unit -> float) ->
  listen:listen ->
  (string * Psm_flow.Persist.model) list ->
  t
(** Bind and listen; optional parameters configure the {!Engine}. *)

val engine : t -> Engine.t
val port : t -> int
(** The bound TCP port (0 for Unix-domain sockets). *)

val run : t -> unit
(** Serve until a [shutdown] request (or {!request_shutdown}); flushes and
    closes every connection, the listener, and the Unix socket path on
    the way out. *)

val request_shutdown : t -> unit
(** Make {!run} exit after its current round — safe to call from the
    request path of the same domain; from another domain prefer the
    protocol's [shutdown] op. *)

val shutdown_requested : t -> bool
