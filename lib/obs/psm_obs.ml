(* Telemetry with a switchable sink. The disabled (default) sink costs one
   atomic load and a conditional branch per instrumentation point — no
   allocation, no clock read — so the library can stay threaded through the
   hot paths of a release build. The recording sink appends to per-domain
   buffers (no locking on the record path) that are merged into one
   canonical summary at export time. *)

(* ---------- the sink switch ---------- *)

let enabled = Atomic.make false

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let () =
  match Sys.getenv_opt "PSM_OBS" with
  | Some ("1" | "true" | "yes" | "on") -> enable ()
  | Some _ | None -> ()

(* ---------- clock ---------- *)

(* Wall clock clamped to be non-decreasing per domain: spans never report
   negative durations even if the system clock steps backwards. *)
let clock_key : float ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0.)

let now_us () =
  let last = Domain.DLS.get clock_key in
  let t = Unix.gettimeofday () *. 1e6 in
  let t = if t > !last then t else !last in
  last := t;
  t

(* ---------- per-domain buffers ---------- *)

type span_event = {
  span_name : string;
  domain : int; (* Domain.self of the recording domain *)
  seq : int; (* per-domain completion order *)
  depth : int; (* nesting depth at start; 0 = top level *)
  start_us : float;
  dur_us : float;
}

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_sumsq : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array; (* 64 log2-width buckets, see [bucket_index] *)
}

(* Power-of-two buckets spanning [2^-32, 2^31]: observation [v] lands in
   the bucket whose upper bound is the smallest power of two >= v, so a
   percentile read off the bucket bounds overestimates by at most 2x —
   plenty for tail-latency reporting without storing observations. *)
let n_buckets = 64

let bucket_index v =
  if not (v > 0.) then 0
  else begin
    let _, e = Float.frexp v in
    (* v in (2^(e-1), 2^e]; frexp returns e with v = m * 2^e, m in [0.5,1) *)
    let idx = e + 32 in
    if idx < 0 then 0 else if idx >= n_buckets then n_buckets - 1 else idx
  end

let bucket_upper idx = Float.ldexp 1. (idx - 32)

type buffer = {
  buf_domain : int;
  mutable spans : span_event list; (* reverse completion order *)
  mutable seq : int;
  mutable depth : int;
  counters : (string, float ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

(* All buffers ever created, in registration order. Buffers outlive their
   domain (a fan-out's helper domains end with the call, their telemetry
   does not); the mutex guards only registration and snapshot/reset,
   never the record path. *)
let registry : buffer list ref = ref []
let registry_mutex = Mutex.create ()

let buffer_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        { buf_domain = (Domain.self () :> int);
          spans = [];
          seq = 0;
          depth = 0;
          counters = Hashtbl.create 16;
          histograms = Hashtbl.create 16 }
      in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let my_buffer () = Domain.DLS.get buffer_key

(* ---------- recording ---------- *)

let span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let b = my_buffer () in
    let depth = b.depth in
    b.depth <- depth + 1;
    let t0 = now_us () in
    (* Exception-safe: a span is closed (and recorded) even when [f]
       raises, so partial profiles survive a failing pipeline stage. *)
    Fun.protect
      ~finally:(fun () ->
        let dur = now_us () -. t0 in
        b.depth <- depth;
        b.seq <- b.seq + 1;
        b.spans <-
          { span_name = name; domain = b.buf_domain; seq = b.seq; depth;
            start_us = t0; dur_us = dur }
          :: b.spans)
      f
  end

let count name v =
  if Atomic.get enabled then begin
    let b = my_buffer () in
    match Hashtbl.find_opt b.counters name with
    | Some r -> r := !r +. float_of_int v
    | None -> Hashtbl.add b.counters name (ref (float_of_int v))
  end

let incr name = count name 1

let observe name v =
  if Atomic.get enabled then begin
    let b = my_buffer () in
    match Hashtbl.find_opt b.histograms name with
    | Some h ->
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        h.h_sumsq <- h.h_sumsq +. (v *. v);
        if v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v;
        let i = bucket_index v in
        h.h_buckets.(i) <- h.h_buckets.(i) + 1
    | None ->
        let buckets = Array.make n_buckets 0 in
        buckets.(bucket_index v) <- 1;
        Hashtbl.add b.histograms name
          { h_count = 1; h_sum = v; h_sumsq = v *. v; h_min = v; h_max = v;
            h_buckets = buckets }
  end

let gc_snapshot label =
  if Atomic.get enabled then begin
    let s = Gc.quick_stat () in
    observe ("gc." ^ label ^ ".heap_words") (float_of_int s.Gc.heap_words);
    observe ("gc." ^ label ^ ".allocated_words")
      (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words);
    observe ("gc." ^ label ^ ".minor_collections")
      (float_of_int s.Gc.minor_collections);
    observe ("gc." ^ label ^ ".major_collections")
      (float_of_int s.Gc.major_collections)
  end

let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun b ->
      b.spans <- [];
      b.seq <- 0;
      b.depth <- 0;
      Hashtbl.reset b.counters;
      Hashtbl.reset b.histograms)
    !registry;
  Mutex.unlock registry_mutex

(* ---------- merge and summarize ---------- *)

type span_stat = {
  total_s : float;
  calls : int;
  mean_s : float;
  max_s : float;
}

type hist_stat = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p99 : float;
}

(* Smallest bucket upper bound covering fraction [q] of the count, clamped
   into the observed [min, max] range (so p99 never exceeds the true max
   and the 2x bucket-bound overestimate is bounded by reality). *)
let percentile_of_buckets h q =
  if h.h_count = 0 then 0.
  else begin
    let target =
      let t = int_of_float (ceil (q *. float_of_int h.h_count)) in
      if t < 1 then 1 else if t > h.h_count then h.h_count else t
    in
    let rec scan i acc =
      if i >= n_buckets then h.h_max
      else
        let acc = acc + h.h_buckets.(i) in
        if acc >= target then bucket_upper i else scan (i + 1) acc
    in
    Float.max h.h_min (Float.min (scan 0 0) h.h_max)
  end

type summary = {
  events : span_event list; (* canonical order, see [snapshot] *)
  span_stats : (string * span_stat) list; (* sorted by name *)
  counters : (string * float) list; (* sorted by name *)
  histograms : (string * hist_stat) list; (* sorted by name *)
}

(* The merge is deterministic in the sense that the summary depends only on
   the multiset of recorded events, never on registry order, hashtable
   iteration order, or which domain performs the merge: counter and
   histogram merging is commutative and associative, and the event list is
   sorted by a total order (start time, then recording domain, then
   per-domain sequence). *)
let snapshot () =
  Mutex.lock registry_mutex;
  let buffers = List.rev !registry in
  let events =
    List.concat_map (fun b -> List.rev b.spans) buffers
    |> List.stable_sort (fun a b ->
           let c = Float.compare a.start_us b.start_us in
           if c <> 0 then c
           else
             let c = Int.compare a.domain b.domain in
             if c <> 0 then c else Int.compare a.seq b.seq)
  in
  let counter_acc = Hashtbl.create 32 in
  List.iter
    (fun (b : buffer) ->
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt counter_acc name with
          | Some total -> Hashtbl.replace counter_acc name (total +. !r)
          | None -> Hashtbl.add counter_acc name !r)
        b.counters)
    buffers;
  let hist_acc : (string, histogram) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (b : buffer) ->
      Hashtbl.iter
        (fun name (h : histogram) ->
          match Hashtbl.find_opt hist_acc name with
          | Some acc ->
              acc.h_count <- acc.h_count + h.h_count;
              acc.h_sum <- acc.h_sum +. h.h_sum;
              acc.h_sumsq <- acc.h_sumsq +. h.h_sumsq;
              if h.h_min < acc.h_min then acc.h_min <- h.h_min;
              if h.h_max > acc.h_max then acc.h_max <- h.h_max;
              Array.iteri
                (fun i c -> acc.h_buckets.(i) <- acc.h_buckets.(i) + c)
                h.h_buckets
          | None ->
              Hashtbl.add hist_acc name
                { h_count = h.h_count; h_sum = h.h_sum; h_sumsq = h.h_sumsq;
                  h_min = h.h_min; h_max = h.h_max;
                  h_buckets = Array.copy h.h_buckets })
        b.histograms)
    buffers;
  Mutex.unlock registry_mutex;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let total, calls, maxd =
        Option.value ~default:(0., 0, 0.) (Hashtbl.find_opt by_name e.span_name)
      in
      Hashtbl.replace by_name e.span_name
        (total +. e.dur_us, calls + 1, Float.max maxd e.dur_us))
    events;
  let sorted_assoc fold table =
    fold (fun k v acc -> (k, v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let span_stats =
    sorted_assoc Hashtbl.fold by_name
    |> List.map (fun (name, (total_us, calls, max_us)) ->
           ( name,
             { total_s = total_us /. 1e6;
               calls;
               mean_s = total_us /. 1e6 /. float_of_int (max 1 calls);
               max_s = max_us /. 1e6 } ))
  in
  let counters = sorted_assoc Hashtbl.fold counter_acc in
  let histograms =
    sorted_assoc Hashtbl.fold hist_acc
    |> List.map (fun (name, h) ->
           let nf = float_of_int (max 1 h.h_count) in
           let mean = h.h_sum /. nf in
           let var = Float.max 0. ((h.h_sumsq /. nf) -. (mean *. mean)) in
           ( name,
             { n = h.h_count; mean; stddev = sqrt var; min = h.h_min;
               max = h.h_max;
               p50 = percentile_of_buckets h 0.50;
               p99 = percentile_of_buckets h 0.99 } ))
  in
  { events; span_stats; counters; histograms }

let span_totals () =
  List.map (fun (name, s) -> (name, s.total_s)) (snapshot ()).span_stats

let span_total name =
  match List.assoc_opt name (span_totals ()) with Some s -> s | None -> 0.

(* ---------- exporters ---------- *)

let escape_json s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_text summary =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "spans (by name):\n";
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-32s total %9.3f ms  calls %6d  mean %9.3f ms  max %9.3f ms\n"
           name (s.total_s *. 1e3) s.calls (s.mean_s *. 1e3) (s.max_s *. 1e3)))
    summary.span_stats;
  if summary.counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-32s %.0f\n" name v))
      summary.counters
  end;
  if summary.histograms <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun (name, h) ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %-32s n %6d  mean %.6g  stddev %.6g  min %.6g  p50 %.6g  p99 %.6g  max %.6g\n"
             name h.n h.mean h.stddev h.min h.p50 h.p99 h.max))
      summary.histograms
  end;
  Buffer.contents buf

let to_json summary =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n  \"schema\": 1,\n  \"spans\": {\n";
  List.iteri
    (fun i (name, s) ->
      out
        "    \"%s\": { \"total_s\": %.9f, \"calls\": %d, \"mean_s\": %.9f, \"max_s\": %.9f }%s\n"
        (escape_json name) s.total_s s.calls s.mean_s s.max_s
        (if i = List.length summary.span_stats - 1 then "" else ","))
    summary.span_stats;
  out "  },\n  \"counters\": {\n";
  List.iteri
    (fun i (name, v) ->
      out "    \"%s\": %.6f%s\n" (escape_json name) v
        (if i = List.length summary.counters - 1 then "" else ","))
    summary.counters;
  out "  },\n  \"histograms\": {\n";
  List.iteri
    (fun i (name, h) ->
      out
        "    \"%s\": { \"n\": %d, \"mean\": %.9g, \"stddev\": %.9g, \"min\": %.9g, \"p50\": %.9g, \"p99\": %.9g, \"max\": %.9g }%s\n"
        (escape_json name) h.n h.mean h.stddev h.min h.p50 h.p99 h.max
        (if i = List.length summary.histograms - 1 then "" else ","))
    summary.histograms;
  out "  }\n}\n";
  Buffer.contents buf

(* Chrome trace-event format (the JSON Array Format wrapped in an object),
   loadable by chrome://tracing and Perfetto: one complete ("X") event per
   span, one metadata thread-name event per recording domain, and one final
   counter ("C") event per counter. Timestamps are microseconds rebased to
   the earliest recorded event. *)
let to_chrome summary =
  let base =
    match summary.events with [] -> 0. | e :: _ -> e.start_us
  in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let first = ref true in
  let emit fmt =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "    ";
    Printf.ksprintf (Buffer.add_string buf) fmt
  in
  out "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  let domains =
    List.sort_uniq Int.compare (List.map (fun e -> e.domain) summary.events)
  in
  List.iter
    (fun d ->
      emit
        "{ \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \"thread_name\", \"args\": { \"name\": \"domain-%d\" } }"
        d d)
    domains;
  List.iter
    (fun e ->
      emit
        "{ \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", \"cat\": \"psm\", \"ts\": %.3f, \"dur\": %.3f }"
        e.domain (escape_json e.span_name) (e.start_us -. base) e.dur_us)
    summary.events;
  let end_ts =
    List.fold_left
      (fun acc e -> Float.max acc (e.start_us -. base +. e.dur_us))
      0. summary.events
  in
  List.iter
    (fun (name, v) ->
      emit
        "{ \"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"name\": \"%s\", \"ts\": %.3f, \"args\": { \"value\": %.6f } }"
        (escape_json name) end_ts v)
    summary.counters;
  out "\n  ]\n}\n";
  Buffer.contents buf

let write_chrome_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome (snapshot ())))

let write_json_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json (snapshot ())))
