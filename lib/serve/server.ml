type listen = [ `Tcp of int | `Unix of string ]

(* [Oversized] stands in for a line past [max_line]: it is answered with
   an error after the frames queued before it, and ends the connection. *)
type frame = Line of string | Oversized

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t; (* raw bytes until the next newline *)
  lines : frame Queue.t; (* complete frames awaiting processing *)
  outbuf : Buffer.t; (* responses awaiting the socket *)
  mutable closed : bool;
  mutable write_blocked : bool;
      (* the last write filled the socket buffer (EAGAIN); don't try
         again until select reports the fd writable *)
}

type t = {
  engine : Engine.t;
  listen_fd : Unix.file_descr;
  listen_spec : listen;
  port : int;
  mutable conns : conn list; (* accept order: the wave iteration order *)
  mutable shutdown : bool;
}

let create ?idle_timeout ?now ~listen models =
  let engine = Engine.create ?idle_timeout ?now models in
  let listen_fd, port =
    match listen with
    | `Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd;
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd 128;
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (fd, bound)
    | `Unix path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd;
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 128;
        (fd, 0)
  in
  { engine; listen_fd; listen_spec = listen; port; conns = []; shutdown = false }

let engine t = t.engine
let port t = t.port
let request_shutdown t = t.shutdown <- true
let shutdown_requested t = t.shutdown

(* ---------- connection plumbing ---------- *)

(* A stalled client that never reads can buffer responses without bound;
   past this the connection is dropped (its sessions live on in the
   engine until close/eviction, like any disconnect). *)
let max_outbuf = 64 * 1024 * 1024

(* A client that never sends a newline could grow [inbuf] without bound;
   past this its connection gets an error and is closed. Large VCD
   uploads span several [vcd] frames ({!Engine.max_vcd_upload} bounds
   their total). *)
let max_line = 16 * 1024 * 1024

let close_conn conn =
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end

(* Frame the bytes [bytes[0, n)] just read. Only the new bytes are
   scanned, so a long line costs one copy into [inbuf], not one per
   read. *)
let extract_lines conn bytes n =
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get bytes i = '\n' then begin
      Buffer.add_subbytes conn.inbuf bytes !start (i - !start);
      let line = Buffer.contents conn.inbuf in
      Buffer.clear conn.inbuf;
      let len = String.length line in
      let line = if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1) else line in
      Queue.add (Line line) conn.lines;
      start := i + 1
    end
  done;
  Buffer.add_subbytes conn.inbuf bytes !start (n - !start);
  if Buffer.length conn.inbuf > max_line then begin
    Buffer.reset conn.inbuf;
    Queue.add Oversized conn.lines
  end

let respond conn line =
  Buffer.add_string conn.outbuf line;
  Buffer.add_char conn.outbuf '\n'


(* One bounded non-blocking write ([single_write] on an fd accept marked
   non-blocking, so it can never retry internally): a partial write keeps
   the rest buffered for the next round, and a full socket buffer
   (EAGAIN) parks the connection until select reports the fd writable —
   one slow client never wedges the loop. *)
let flush_out conn =
  let len = Buffer.length conn.outbuf in
  if len > 0 && (not conn.closed) && not conn.write_blocked then begin
    let bytes = Buffer.to_bytes conn.outbuf in
    match Unix.single_write conn.fd bytes 0 len with
    | n ->
        Buffer.clear conn.outbuf;
        if n < len then Buffer.add_subbytes conn.outbuf bytes n (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        conn.write_blocked <- true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        close_conn conn
  end;
  if Buffer.length conn.outbuf > max_outbuf then begin
    Psm_obs.incr "serve.slow_client_drops";
    close_conn conn
  end

(* ---------- request handling ---------- *)

let num_int n = Json.Num (float_of_int n)

let hello_response engine =
  Protocol.ok
    [ ("server", Json.Str "psmgen-serve");
      ("schema", num_int Protocol.schema);
      ( "models",
        Json.List
          (List.map
             (fun (m : Engine.model_info) ->
               Json.Obj
                 [ ("name", Json.Str m.Engine.name);
                   ("states", num_int m.Engine.states);
                   ("props", num_int m.Engine.props) ])
             (Engine.models engine)) ) ]

let stats_response engine =
  let s = Engine.stats engine in
  Protocol.ok
    [ ("sessions", num_int s.Engine.sessions);
      ("cycles_served", num_int s.Engine.cycles_served);
      ("ticks", num_int s.Engine.ticks);
      ("sweeps", num_int s.Engine.sweeps);
      ("opened", num_int s.Engine.opened);
      ("evicted", num_int s.Engine.evicted);
      ("closed", num_int s.Engine.closed) ]

(* Execute one request right now, or hand back a deferral: stream requests
   ([observe] / final [vcd]) only enqueue here, and answer after the wave's
   shared drain so concurrent sessions advance in batched sweeps. *)
let handle_immediate t (req : Protocol.request) =
  match req with
  | Protocol.Hello -> `Respond (hello_response t.engine)
  | Protocol.Stats -> `Respond (stats_response t.engine)
  | Protocol.Shutdown ->
      t.shutdown <- true;
      `Respond (Protocol.ok [ ("bye", Json.Bool true) ])
  | Protocol.Open { session; model; mode } -> (
      match Engine.open_session t.engine ~id:session ~model ~mode with
      | Ok () ->
          `Respond
            (Protocol.ok
               [ ("session", Json.Str session);
                 ("mode", Json.Str (Protocol.mode_to_string mode)) ])
      | Error e -> `Respond (Protocol.error ~session e))
  | Protocol.Close { session } -> (
      match Engine.close_session t.engine ~id:session with
      | Ok () -> `Respond (Protocol.ok [ ("session", Json.Str session) ])
      | Error e -> `Respond (Protocol.error ~session e))
  | Protocol.Observe { session; obs } -> (
      match Engine.submit t.engine ~id:session obs with
      | Ok cycles -> `Defer (session, cycles)
      | Error e -> `Respond (Protocol.error ~session e))
  | Protocol.Vcd { session; chunk; last } -> (
      match Engine.vcd_chunk t.engine ~id:session ~chunk ~last with
      | Ok _ when not last ->
          `Respond
            (Protocol.ok
               [ ("session", Json.Str session); ("buffered", Json.Bool true) ])
      | Ok cycles -> `Defer (session, cycles)
      | Error e -> `Respond (Protocol.error ~session e))
  | Protocol.Checkpoint { session } -> (
      match Engine.checkpoint t.engine ~id:session with
      | Ok data ->
          `Respond
            (Protocol.ok
               [ ("session", Json.Str session);
                 ("checkpoint", Json.Str (Protocol.hex_encode data)) ])
      | Error e -> `Respond (Protocol.error ~session e))
  | Protocol.Restore { session; model = _; checkpoint } -> (
      match Protocol.hex_decode checkpoint with
      | Error e -> `Respond (Protocol.error ~session ("checkpoint: " ^ e))
      | Ok data -> (
          match Engine.restore_session t.engine ~id:session data with
          | Ok () -> `Respond (Protocol.ok [ ("session", Json.Str session) ])
          | Error e -> `Respond (Protocol.error ~session e)))

let deferred_response t ~session ~cycles =
  match Engine.take_results t.engine ~id:session ~count:cycles with
  | Error e -> Protocol.error ~session e
  | Ok results -> (
      match Engine.session_stats t.engine ~id:session with
      | Error e -> Protocol.error ~session e
      | Ok st ->
          Protocol.ok
            [ ("session", Json.Str session);
              ("cycles", num_int (Array.length results));
              ( "power",
                Json.List
                  (Array.to_list (Array.map (fun (p, _) -> Json.Num p) results))
              );
              ( "states",
                Json.List
                  (Array.to_list (Array.map (fun (_, s) -> num_int s) results))
              );
              ("wsp", Json.Num st.Engine.wsp);
              ("wrong_instants", num_int st.Engine.wrong_instants);
              ("resync_events", num_int st.Engine.resync_events);
              ("log_lik", Json.Num st.Engine.log_likelihood) ])

(* Drain every complete frame from every connection, in waves. Within a
   wave each connection executes its leading non-stream requests at once
   and contributes at most one stream request; one engine drain then
   advances all contributors together (that is where cross-client batching
   happens), and their responses are emitted in per-connection request
   order. Waves repeat until no frames remain. *)
let process_waves t =
  let progress = ref true in
  while !progress do
    progress := false;
    let deferred = ref [] in
    List.iter
      (fun conn ->
        if not conn.closed then begin
          let streaming = ref false in
          while (not !streaming) && not (Queue.is_empty conn.lines) do
            progress := true;
            match Queue.pop conn.lines with
            | Oversized ->
                respond conn
                  (Protocol.error
                     (Printf.sprintf "request line longer than %d bytes" max_line));
                flush_out conn;
                close_conn conn;
                Queue.clear conn.lines
            | Line line when String.trim line = "" -> ()
            | Line line -> (
                let outcome =
                  match Protocol.parse_request line with
                  | Error e -> `Respond (Protocol.error e)
                  | Ok req -> (
                      try handle_immediate t req
                      with exn ->
                        `Respond
                          (Protocol.error
                             ("internal error: " ^ Printexc.to_string exn)))
                in
                match outcome with
                | `Respond r -> respond conn r
                | `Defer (session, cycles) ->
                    deferred := (conn, session, cycles) :: !deferred;
                    streaming := true)
          done
        end)
      t.conns;
    if !deferred <> [] then begin
      (try ignore (Engine.drain t.engine)
       with exn ->
         Psm_obs.incr "serve.drain_errors";
         ignore (Printexc.to_string exn));
      List.iter
        (fun (conn, session, cycles) ->
          respond conn (deferred_response t ~session ~cycles))
        (List.rev !deferred)
    end
  done

(* ---------- the select loop ---------- *)

let run t =
  (if Sys.os_type = "Unix" then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let buf = Bytes.create 65536 in
  while not t.shutdown do
    let readable_wanted =
      t.listen_fd
      :: List.filter_map
           (fun c -> if c.closed then None else Some c.fd)
           t.conns
    in
    let writable_wanted =
      List.filter_map
        (fun c ->
          if (not c.closed) && Buffer.length c.outbuf > 0 then Some c.fd
          else None)
        t.conns
    in
    match Unix.select readable_wanted writable_wanted [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        (* A writable report is the all-clear after a full socket buffer. *)
        List.iter
          (fun c -> if List.mem c.fd writable then c.write_blocked <- false)
          t.conns;
        if List.mem t.listen_fd readable then begin
          match Unix.accept t.listen_fd with
          | fd, _ ->
              Unix.set_nonblock fd;
              Psm_obs.incr "serve.connections";
              t.conns <-
                t.conns
                @ [ { fd;
                      inbuf = Buffer.create 256;
                      lines = Queue.create ();
                      outbuf = Buffer.create 256;
                      closed = false;
                      write_blocked = false } ]
          | exception Unix.Unix_error _ -> ()
        end;
        List.iter
          (fun conn ->
            if (not conn.closed) && List.mem conn.fd readable then begin
              match Unix.read conn.fd buf 0 (Bytes.length buf) with
              (* A disconnect closes the transport only: the client's
                 sessions stay live in the engine until close/eviction. *)
              | 0 -> close_conn conn
              | n -> extract_lines conn buf n
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                  () (* spurious readiness on a non-blocking fd *)
              | exception
                  Unix.Unix_error
                    ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
                  close_conn conn
            end)
          t.conns;
        process_waves t;
        List.iter flush_out t.conns;
        t.conns <- List.filter (fun c -> not c.closed) t.conns;
        ignore (Engine.evict_idle t.engine)
  done;
  List.iter
    (fun c ->
      (try flush_out c with _ -> ());
      close_conn c)
    t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  match t.listen_spec with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ()
