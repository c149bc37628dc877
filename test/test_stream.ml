(* Streaming-trainer equivalence: Stream_train consumes cycles one at a
   time, feeding each released segment straight into its simplify
   cascade, yet must produce the same optimized
   PSM, the same HMM inputs and the same regression decisions as the
   batch Flow.train — structure exactly, float attributes within a
   1e-9 relative tolerance (the two paths run the same Chan-merge
   arithmetic, so in practice they agree bit-for-bit; the slack only
   covers the sufficient-statistics forms of Pearson/fit). *)

module Flow = Psm_flow.Flow
module Stream = Psm_flow.Stream_train
module Workloads = Psm_ips.Workloads
module Capture = Psm_ips.Capture
module Psm = Psm_core.Psm
module Assertion = Psm_core.Assertion
module Power_attr = Psm_core.Power_attr
module Optimize = Psm_core.Optimize
module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Interface = Psm_trace.Interface
module Signal = Psm_trace.Signal
module Bits = Psm_bits.Bits
module Miner = Psm_mining.Miner
module J = Json_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tolerance = 1e-9

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let close label expected actual =
  let bound = tolerance *. Float.max 1e-30 (abs_float expected) in
  if abs_float (expected -. actual) > bound then
    Alcotest.failf "%s: batch %.17g, streamed %.17g" label expected actual

let sorted_states psm =
  List.sort (fun (a : Psm.state) b -> compare a.Psm.id b.Psm.id) (Psm.states psm)

let check_attr label (a : Power_attr.t) (b : Power_attr.t) =
  close (label ^ " mu") a.Power_attr.mu b.Power_attr.mu;
  close (label ^ " sigma") a.Power_attr.sigma b.Power_attr.sigma;
  check_int (label ^ " n") a.Power_attr.n b.Power_attr.n;
  Alcotest.(check (list (triple int int int)))
    (label ^ " intervals")
    (List.map (fun iv -> (iv.Power_attr.trace, iv.Power_attr.start, iv.Power_attr.stop))
       a.Power_attr.intervals)
    (List.map (fun iv -> (iv.Power_attr.trace, iv.Power_attr.start, iv.Power_attr.stop))
       b.Power_attr.intervals)

let check_counts label a b =
  check_int (label ^ " entries") (List.length a) (List.length b);
  List.iter2
    (fun ((ka : int * int), va) ((kb : int * int), vb) ->
      Alcotest.(check (pair int int)) (label ^ " key") ka kb;
      close (label ^ " value") va vb)
    a b

(* Structure exactly, floats within tolerance. *)
let check_equiv name (batch : Flow.trained) (sr : Stream.result) =
  let bp = batch.Flow.optimized and sp = sr.Stream.optimized in
  check_int (name ^ " props") (Psm_mining.Prop_trace.Table.prop_count batch.Flow.table)
    (Psm_mining.Prop_trace.Table.prop_count sr.Stream.table);
  check_int (name ^ " states") (Psm.state_count bp) (Psm.state_count sp);
  check_int (name ^ " transitions") (Psm.transition_count bp) (Psm.transition_count sp);
  check_int (name ^ " machines") (Psm.machine_count bp) (Psm.machine_count sp);
  Alcotest.(check (list int)) (name ^ " initial") (Psm.initial bp) (Psm.initial sp);
  Alcotest.(check (list (triple int int int)))
    (name ^ " transition set")
    (List.sort compare
       (List.map (fun (t : Psm.transition) -> (t.Psm.src, t.Psm.guard, t.Psm.dst))
          (Psm.transitions bp)))
    (List.sort compare
       (List.map (fun (t : Psm.transition) -> (t.Psm.src, t.Psm.guard, t.Psm.dst))
          (Psm.transitions sp)));
  List.iter2
    (fun (a : Psm.state) (b : Psm.state) ->
      let label = Printf.sprintf "%s state %d" name a.Psm.id in
      check_int (label ^ " id") a.Psm.id b.Psm.id;
      check_bool (label ^ " assertion") true
        (Assertion.equal a.Psm.assertion b.Psm.assertion);
      check_attr label a.Psm.attr b.Psm.attr;
      (match (a.Psm.output, b.Psm.output) with
      | Psm.Const x, Psm.Const y -> close (label ^ " const") x y
      | Psm.Affine fa, Psm.Affine fb ->
          close (label ^ " slope") fa.slope fb.slope;
          close (label ^ " intercept") fa.intercept fb.intercept
      | _ -> Alcotest.failf "%s: output kinds differ" label);
      check_int (label ^ " components") (List.length a.Psm.components)
        (List.length b.Psm.components);
      List.iter2
        (fun (aa, aattr) (ba, battr) ->
          check_bool (label ^ " component assertion") true (Assertion.equal aa ba);
          check_attr (label ^ " component") aattr battr)
        a.Psm.components b.Psm.components)
    (sorted_states bp) (sorted_states sp);
  check_counts (name ^ " transition counts") batch.Flow.transition_counts
    sr.Stream.transition_counts;
  check_counts (name ^ " emission counts") batch.Flow.emission_counts
    sr.Stream.emission_counts;
  check_int (name ^ " reports")
    (List.length batch.Flow.optimize_reports)
    (List.length sr.Stream.optimize_reports);
  List.iter2
    (fun (a : Optimize.report) (b : Optimize.report) ->
      check_int (name ^ " report state") a.Optimize.state_id b.Optimize.state_id;
      check_bool (name ^ " report upgraded") a.Optimize.upgraded b.Optimize.upgraded;
      close (name ^ " report sigma") a.Optimize.relative_sigma b.Optimize.relative_sigma;
      close (name ^ " report r") a.Optimize.correlation b.Optimize.correlation)
    batch.Flow.optimize_reports sr.Stream.optimize_reports;
  (* Beyond structural identity: the two models are power-label-aware
     bisimilar, i.e. semantically indistinguishable (Verify.equiv). *)
  let er = Psm_verify.Verify.equiv ~epsilon:1e-6 bp sp in
  (match er.Psm_verify.Verify.mismatch with
  | None -> ()
  | Some m -> Alcotest.failf "%s bisimulation: %s" name m);
  check_bool (name ^ " bisimilar") true er.Psm_verify.Verify.equivalent

let capture_suite ?(parts = 3) ?(total_length = 4500) name make =
  let ip = make () in
  let suite = Workloads.suite ~parts ~total_length ~long:false name in
  List.split (List.map (fun stimulus -> Capture.run ip stimulus) suite)

(* ---------- bundled-IP equivalence ---------- *)

let ip_case name make () =
  let traces, powers = capture_suite name make in
  let batch = Flow.train ~traces ~powers () in
  let streamed = Stream.train_traces ~traces ~powers () in
  check_bool (name ^ " cycles counted") true
    (streamed.Stream.cycles = List.fold_left (fun a t -> a + Functional_trace.length t) 0 traces);
  check_equiv name batch streamed

let test_ram () = ip_case "RAM" Psm_ips.Ram.create ()
let test_multsum () = ip_case "MultSum" Psm_ips.Multsum.create ()
let test_aes () = ip_case "AES" Psm_ips.Aes.create ()
let test_camellia () = ip_case "Camellia" Psm_ips.Camellia.create ()

(* ---------- random-trace property ---------- *)

(* Piecewise-constant signals with random dwell times: long enough runs
   for the stability filter to mine a real vocabulary, workload-like
   enough to exercise simplify/join merging in depth. *)
let random_interface =
  Interface.create
    [ Signal.input "mode" 2; Signal.input "req" 1; Signal.output "busy" 1 ]

let random_trace seed len =
  let st = Random.State.make [| seed; len |] in
  let samples =
    Array.init len (fun _ -> [| Bits.zero 2; Bits.zero 1; Bits.zero 1 |])
  in
  let powers = Array.make len 0. in
  let t = ref 0 in
  while !t < len do
    let mode = Random.State.int st 4 in
    let req = Random.State.int st 2 in
    let busy = if mode >= 2 then 1 else req in
    let dwell = 1 + Random.State.int st 9 in
    let level = float_of_int ((mode * 7) + (busy * 3) + 2) in
    let stop = min (len - 1) (!t + dwell - 1) in
    for i = !t to stop do
      samples.(i) <-
        [| Bits.of_int ~width:2 mode;
           Bits.of_int ~width:1 req;
           Bits.of_int ~width:1 busy |];
      powers.(i) <- level +. (0.25 *. float_of_int (Random.State.int st 5))
    done;
    t := stop + 1
  done;
  (Functional_trace.of_samples random_interface samples, Power_trace.of_array powers)

let gen_pair =
  QCheck.Gen.(
    let* n_traces = 1 -- 3 in
    let* seeds = list_repeat n_traces (0 -- 1_000_000) in
    let* lens = list_repeat n_traces (40 -- 220) in
    return (List.map2 random_trace seeds lens))

let test_random_equiv =
  QCheck.Test.make ~count:40 ~name:"train_stream = train on random traces"
    (QCheck.make gen_pair) (fun pairs ->
      let traces, powers = List.split pairs in
      let batch = Flow.train ~traces ~powers () in
      let streamed = Stream.train_traces ~traces ~powers () in
      check_equiv "random" batch streamed;
      true)

(* ---------- incremental miner ---------- *)

let test_incremental_miner () =
  let traces, _ = capture_suite ~total_length:3000 "RAM" Psm_ips.Ram.create in
  let batch_vocab = Miner.mine_vocabulary traces in
  let inc = Miner.Incremental.create (Functional_trace.interface (List.hd traces)) in
  List.iter
    (fun trace ->
      Functional_trace.iter (fun _ s -> Miner.Incremental.observe inc s) trace;
      Miner.Incremental.end_trace inc)
    traces;
  let stream_vocab = Miner.Incremental.vocabulary inc in
  let atoms v = Array.to_list (Psm_mining.Vocabulary.atoms v) in
  check_int "atom count"
    (List.length (atoms batch_vocab))
    (List.length (atoms stream_vocab));
  List.iter2
    (fun a b -> check_bool "atom" true (Psm_mining.Atomic.equal a b))
    (atoms batch_vocab) (atoms stream_vocab)

(* ---------- provenance modes ---------- *)

let test_counts_provenance () =
  let traces, powers = capture_suite ~total_length:3000 "MultSum" Psm_ips.Multsum.create in
  let full = Stream.train_traces ~traces ~powers () in
  let light =
    Stream.train_traces ~provenance:`Counts ~traces ~powers ()
  in
  let fp = full.Stream.optimized and lp = light.Stream.optimized in
  check_int "states" (Psm.state_count fp) (Psm.state_count lp);
  check_int "transitions" (Psm.transition_count fp) (Psm.transition_count lp);
  Alcotest.(check (list int)) "initial" (Psm.initial fp) (Psm.initial lp);
  List.iter2
    (fun (a : Psm.state) (b : Psm.state) ->
      check_bool "assertion" true (Assertion.equal a.Psm.assertion b.Psm.assertion);
      close "mu" a.Psm.attr.Power_attr.mu b.Psm.attr.Power_attr.mu;
      close "sigma" a.Psm.attr.Power_attr.sigma b.Psm.attr.Power_attr.sigma;
      check_int "n" a.Psm.attr.Power_attr.n b.Psm.attr.Power_attr.n;
      check_int "no intervals retained" 0
        (List.length b.Psm.attr.Power_attr.intervals);
      check_bool "components bounded" true
        (List.length b.Psm.components <= List.length a.Psm.components))
    (sorted_states fp) (sorted_states lp);
  check_counts "transition counts" full.Stream.transition_counts
    light.Stream.transition_counts;
  check_counts "emission counts" full.Stream.emission_counts
    light.Stream.emission_counts

(* ---------- checkpoint / restore ---------- *)

let test_checkpoint_mid_trace () =
  let traces, powers = capture_suite ~total_length:3000 "MultSum" Psm_ips.Multsum.create in
  let reference = Stream.train_traces ~traces ~powers () in
  let iface = Functional_trace.interface (List.hd traces) in
  let feed_phase t =
    List.iter2
      (fun trace power ->
        for i = 0 to Functional_trace.length trace - 1 do
          Stream.Trainer.push t (Functional_trace.sample trace ~time:i)
            ~power:(Power_trace.get power i)
        done;
        Stream.Trainer.end_trace t)
      traces powers
  in
  let t = Stream.Trainer.create iface in
  feed_phase t;
  Stream.Trainer.finish_mining t;
  (* Training pass: checkpoint in the middle of the second trace, resume
     from the restored trainer and finish the pass there. *)
  let first = List.hd traces and first_p = List.hd powers in
  for i = 0 to Functional_trace.length first - 1 do
    Stream.Trainer.push t (Functional_trace.sample first ~time:i)
      ~power:(Power_trace.get first_p i)
  done;
  Stream.Trainer.end_trace t;
  let second = List.nth traces 1 and second_p = List.nth powers 1 in
  let half = Functional_trace.length second / 2 in
  for i = 0 to half - 1 do
    Stream.Trainer.push t (Functional_trace.sample second ~time:i)
      ~power:(Power_trace.get second_p i)
  done;
  let path = Filename.temp_file "psm-trainer" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Stream.Checkpoint.save_file path t;
      let t2 = Stream.Checkpoint.load_file path in
      for i = half to Functional_trace.length second - 1 do
        Stream.Trainer.push t2 (Functional_trace.sample second ~time:i)
          ~power:(Power_trace.get second_p i)
      done;
      Stream.Trainer.end_trace t2;
      List.iteri
        (fun k trace ->
          if k >= 2 then begin
            let power = List.nth powers k in
            for i = 0 to Functional_trace.length trace - 1 do
              Stream.Trainer.push t2 (Functional_trace.sample trace ~time:i)
                ~power:(Power_trace.get power i)
            done;
            Stream.Trainer.end_trace t2
          end)
        traces;
      let resumed = Stream.Trainer.finish t2 in
      check_int "resumed cycles" reference.Stream.cycles resumed.Stream.cycles;
      (* Compare the two streamed results directly: same structure,
         bit-identical floats (identical arithmetic on both sides). *)
      let bp = reference.Stream.optimized and sp = resumed.Stream.optimized in
      check_int "states" (Psm.state_count bp) (Psm.state_count sp);
      check_int "transitions" (Psm.transition_count bp) (Psm.transition_count sp);
      Alcotest.(check (list int)) "initial" (Psm.initial bp) (Psm.initial sp);
      List.iter2
        (fun (a : Psm.state) (b : Psm.state) ->
          check_bool "assertion" true (Assertion.equal a.Psm.assertion b.Psm.assertion);
          check_attr (Printf.sprintf "state %d" a.Psm.id) a.Psm.attr b.Psm.attr)
        (sorted_states bp) (sorted_states sp);
      check_counts "transition counts" reference.Stream.transition_counts
        resumed.Stream.transition_counts;
      check_counts "emission counts" reference.Stream.emission_counts
        resumed.Stream.emission_counts)

(* The same kill/resume discipline the serve-session tests use, through
   the shared harness: the only thing surviving the kill is the
   checkpoint file's bytes. Steps are half-traces, so the default and
   chosen kill points land mid-trace in the middle of the training
   pass — the hardest resume point (open trace cursor, open cascade
   runs). The revived trainer must finish on the exact result of the
   uninterrupted run. *)
let test_harness_kill_resume () =
  let traces, powers = capture_suite ~total_length:3000 "RAM" Psm_ips.Ram.create in
  let iface = Functional_trace.interface (List.hd traces) in
  let push_range t trace power lo hi =
    for i = lo to hi - 1 do
      Stream.Trainer.push t (Functional_trace.sample trace ~time:i)
        ~power:(Power_trace.get power i)
    done
  in
  let ops = ref [] in
  List.iter2
    (fun trace power ->
      ops :=
        (fun t ->
          push_range t trace power 0 (Functional_trace.length trace);
          Stream.Trainer.end_trace t)
        :: !ops)
    traces powers;
  ops := (fun t -> Stream.Trainer.finish_mining t) :: !ops;
  List.iter2
    (fun trace power ->
      let n = Functional_trace.length trace in
      ops := (fun t -> push_range t trace power 0 (n / 2)) :: !ops;
      ops :=
        (fun t ->
          push_range t trace power (n / 2) n;
          Stream.Trainer.end_trace t)
        :: !ops)
    traces powers;
  let ops = Array.of_list (List.rev !ops) in
  let subject =
    { Resume_harness.label = "stream-train";
      steps = Array.length ops;
      create = (fun () -> Stream.Trainer.create iface);
      feed =
        (fun t i ->
          ops.(i) t;
          []);
      save =
        (fun t ->
          let path = Filename.temp_file "psm-trainer" ".ckpt" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Stream.Checkpoint.save_file path t;
              let ic = open_in_bin path in
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () -> really_input_string ic (in_channel_length ic))));
      restore =
        (fun bytes ->
          let path = Filename.temp_file "psm-trainer" ".ckpt" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              let oc = open_out_bin path in
              output_string oc bytes;
              close_out oc;
              Stream.Checkpoint.load_file path));
      finish = (fun t -> Stream.Trainer.finish t) }
  in
  let compare_results (a : Stream.result) (b : Stream.result) =
    check_int "cycles" a.Stream.cycles b.Stream.cycles;
    let bp = a.Stream.optimized and sp = b.Stream.optimized in
    check_int "states" (Psm.state_count bp) (Psm.state_count sp);
    check_int "transitions" (Psm.transition_count bp) (Psm.transition_count sp);
    Alcotest.(check (list int)) "initial" (Psm.initial bp) (Psm.initial sp);
    List.iter2
      (fun (x : Psm.state) (y : Psm.state) ->
        check_bool "assertion" true (Assertion.equal x.Psm.assertion y.Psm.assertion);
        check_attr (Printf.sprintf "state %d" x.Psm.id) x.Psm.attr y.Psm.attr)
      (sorted_states bp) (sorted_states sp);
    check_counts "transition counts" a.Stream.transition_counts
      b.Stream.transition_counts;
    check_counts "emission counts" a.Stream.emission_counts
      b.Stream.emission_counts
  in
  (* Default kill point (halfway: inside the training pass) plus one
     inside the very first mining trace. *)
  List.iter
    (fun kill_at ->
      let (_, expected), (_, actual) = Resume_harness.run ?kill_at subject in
      compare_results expected actual)
    [ None; Some 1 ]

(* A model file, and checkpoints of the two previous trainer layouts
   (version 3 marshaled the miner's Hashtbl value counters). *)
let test_checkpoint_bad_header () =
  let path = Filename.temp_file "psm-trainer" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun (header, summary) ->
          let oc = open_out path in
          output_string oc (header ^ "\n" ^ summary ^ "\n");
          close_out oc;
          match Stream.Checkpoint.load_file path with
          | _ -> Alcotest.failf "%s: expected Restore_error" header
          | exception Stream.Checkpoint.Restore_error msg ->
              check_bool "names found header" true (contains msg header);
              check_bool "names expected header" true
                (contains msg Stream.Checkpoint.version_line);
              check_bool "names source" true (contains msg path))
        [ ("psm-repro-model 1", "not a trainer");
          ("psm-repro-trainer 2", "state training watermark 4096 cycles 1200");
          ("psm-repro-trainer 3", "state mining cycles 1200") ])

(* ---------- VCD streaming path ---------- *)

(* [text] on a stride-10 time axis, each timestamp moved a seeded 0..9
   units past its grid point, so most of them fall off the grid. *)
let stride_10_off_grid seed text =
  let st = Random.State.make [| seed |] in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         if String.length line > 1 && line.[0] = '#' then
           let t = int_of_string (String.sub line 1 (String.length line - 1)) in
           Printf.sprintf "#%d" ((10 * t) + Random.State.int st 10)
         else line)
  |> String.concat "\n"

let test_vcd_stream_matches_batch () =
  let traces, powers = capture_suite ~total_length:3000 "RAM" Psm_ips.Ram.create in
  let dir = Filename.temp_file "psm-stream" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let paths, off_grid =
    List.split
      (List.mapi
         (fun i (trace, power) ->
           let text = Psm_trace.Vcd.to_string ~power trace in
           ( write (Printf.sprintf "t%d.vcd" i) text,
             write (Printf.sprintf "s%d.vcd" i) (stride_10_off_grid i text) ))
         (List.combine traces powers))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (paths @ off_grid);
      Sys.rmdir dir)
    (fun () ->
      let batch, _ingested = Flow.train_on_vcd_files ~period:1 paths in
      let streamed = Stream.train_stream ~period:1 paths in
      check_equiv "vcd" batch streamed;
      let batch, _ingested = Flow.train_on_vcd_files ~period:10 off_grid in
      let streamed = Stream.train_stream ~period:10 off_grid in
      check_bool "off-grid timestamps expand the grid" true
        (streamed.Stream.cycles > streamed.Stream.traces_seen);
      check_equiv "vcd stride 10, off-grid" batch streamed)

(* Seeded random documents: distinct timestamps at random deltas (most
   off any grid, some closer than the period), values and power changing
   at random. At every forced period the resampler must hand on exactly
   the samples and powers of the batch reader's trace. *)
let test_resample_matches_read () =
  let st = Random.State.make [| 25 |] in
  let document () =
    let buf = Buffer.create 1024 in
    List.iter
      (fun l -> Buffer.add_string buf (l ^ "\n"))
      [ "$timescale 1ns $end"; "$scope module dut $end"; "$var wire 1 ! a $end";
        "$var wire 2 # b $end"; "$var real 64 \" __power__ $end"; "$upscope $end";
        "$enddefinitions $end" ];
    let t = ref (Random.State.int st 30) in
    for i = 0 to Random.State.int st 40 do
      if i > 0 then t := !t + 1 + Random.State.int st 25;
      Printf.bprintf buf "#%d\n" !t;
      let change () = i = 0 || Random.State.bool st in
      if change () then Printf.bprintf buf "%d!\n" (Random.State.int st 2);
      if change () then
        Printf.bprintf buf "b%s #\n"
          (Bits.to_binary_string (Bits.of_int ~width:2 (Random.State.int st 4)));
      if change () then Printf.bprintf buf "r%g \"\n" (float_of_int (Random.State.int st 100) /. 4.)
    done;
    Buffer.contents buf
  in
  for doc = 1 to 300 do
    let text = document () in
    List.iter
      (fun period ->
        let label = Printf.sprintf "document %d, period %d" doc period in
        let parsed = Psm_trace.Vcd.parse ~period text in
        let power = Option.get parsed.Psm_trace.Vcd.power in
        let pushed = ref [] in
        let r =
          Stream.Resample.create ~path:"doc.vcd" ~period ~limit:Psm_trace.Vcd.max_samples
            (fun sample ~power -> pushed := (Array.copy sample, power) :: !pushed)
        in
        ignore
          (Psm_trace.Vcd.stream (Psm_trace.Reader.of_string text)
             ~init:(fun _ -> ())
             ~sample:(fun ~time sample ~power -> Stream.Resample.push r ~time sample ~power));
        Stream.Resample.finish r;
        let pushed = Array.of_list (List.rev !pushed) in
        check_int (label ^ " samples") (Functional_trace.length parsed.Psm_trace.Vcd.trace)
          (Array.length pushed);
        Array.iteri
          (fun i (sample, p) ->
            let expected = Functional_trace.sample parsed.Psm_trace.Vcd.trace ~time:i in
            if not (Array.for_all2 Bits.equal expected sample) then
              Alcotest.failf "%s: sample %d differs" label i;
            if Int64.bits_of_float (Power_trace.get power i) <> Int64.bits_of_float p then
              Alcotest.failf "%s: power %d is %g, batch %g" label i p (Power_trace.get power i))
          pushed)
      [ 2; 7; 10 ]
  done

(* A timestamp far past the last one must be refused before its gap is
   filled (filling it one grid point at a time would run for minutes),
   as the batch reader refuses the file. *)
let test_vcd_gap_bound () =
  let path = Filename.temp_file "psm-far" ".vcd" in
  let write last =
    Out_channel.with_open_text path (fun oc ->
        output_string oc
          (String.concat "\n"
             [ "$timescale 1ns $end"; "$scope module dut $end"; "$var wire 1 ! a $end";
               "$var real 64 \" __power__ $end"; "$upscope $end"; "$enddefinitions $end";
               "#0"; "0!"; "r1 \""; "#1"; "1!"; Printf.sprintf "#%d" last; "0!"; "" ]))
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write 100_000_001;
      (match Stream.train_stream ~period:1 [ path ] with
      | _ -> Alcotest.fail "expected Too_many_samples"
      | exception Stream.Too_many_samples { path = p; gap_from; gap_to; filled } ->
          Alcotest.(check string) "names the file" path p;
          check_int "gap start" 1 gap_from;
          check_int "gap end" 100_000_001 gap_to;
          check_int "held samples" 99_999_999 filled);
      check_bool "batch reader refuses it too" true
        (match Psm_trace.Vcd.parse_file path with
        | _ -> false
        | exception Psm_trace.Vcd.Parse_error _ -> true);
      (* A gap inside the limit is still filled, point by point. *)
      write 1000;
      check_int "filled gap" 1001 (Stream.train_stream ~period:1 [ path ]).Stream.cycles)

(* The bound counts only the held samples gaps fill, never a file's
   length: with a stand-in limit of 4, 1,000 timestamps one grid point
   apart (spanning 250x the limit) stream, and so does any mix of gaps
   up to 4 filled points, off-grid timestamps included; the gap that
   would make 5 is refused with nothing of it pushed. *)
let test_resample_bound () =
  let pushed = ref 0 in
  let sample = [| Bits.zero 1 |] in
  let create ~period =
    pushed := 0;
    Stream.Resample.create ~path:"t.vcd" ~period ~limit:4 (fun _ ~power:_ -> incr pushed)
  in
  let push r time = Stream.Resample.push r ~time sample ~power:0. in
  let r = create ~period:1 in
  for t = 0 to 999 do
    push r (1000 + t)
  done;
  Stream.Resample.finish r;
  check_int "uniform file: one point per timestamp" 1000 !pushed;
  let r = create ~period:10 in
  List.iter (push r) [ 0; 5; 15; 60; 65; 71; 79 ];
  check_int "off-grid timestamps and a gap" 8 !pushed;
  push r 119;
  check_int "filled up to the limit" 12 !pushed;
  (match push r 130 with
  | () -> Alcotest.fail "expected Too_many_samples"
  | exception Stream.Too_many_samples { path; gap_from; gap_to; filled } ->
      Alcotest.(check string) "names the file" "t.vcd" path;
      check_int "gap start" 119 gap_from;
      check_int "gap end" 130 gap_to;
      check_int "filled" 5 filled);
  check_int "nothing of the refused gap pushed" 12 !pushed

let test_vcd_checkpoint_resume () =
  let traces, powers = capture_suite ~total_length:3000 "RAM" Psm_ips.Ram.create in
  let dir = Filename.temp_file "psm-stream" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let paths =
    List.mapi
      (fun i (trace, power) ->
        let path = Filename.concat dir (Printf.sprintf "t%d.vcd" i) in
        Psm_trace.Vcd.write_file ~power path trace;
        path)
      (List.combine traces powers)
  in
  let ckpt = Filename.concat dir "trainer.ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove paths;
      if Sys.file_exists ckpt then Sys.remove ckpt;
      Sys.rmdir dir)
    (fun () ->
      let plain = Stream.train_stream ~period:1 paths in
      (* Emulate a run interrupted after mining the first file: mine that
         file by hand, checkpoint, then hand the file list back to
         [train_stream] with the checkpoint. It must skip the mined file
         and land on the uninterrupted result. *)
      let first = List.hd traces and first_p = List.hd powers in
      let t = Stream.Trainer.create (Functional_trace.interface first) in
      for i = 0 to Functional_trace.length first - 1 do
        Stream.Trainer.push t (Functional_trace.sample first ~time:i)
          ~power:(Power_trace.get first_p i)
      done;
      Stream.Trainer.end_trace t;
      Stream.Checkpoint.save_file ckpt t;
      let resumed = Stream.train_stream ~period:1 ~checkpoint:ckpt paths in
      check_bool "checkpoint removed on completion" false (Sys.file_exists ckpt);
      check_int "cycles" plain.Stream.cycles resumed.Stream.cycles;
      let bp = plain.Stream.optimized and sp = resumed.Stream.optimized in
      check_int "states" (Psm.state_count bp) (Psm.state_count sp);
      check_int "transitions" (Psm.transition_count bp) (Psm.transition_count sp);
      Alcotest.(check (list int)) "initial" (Psm.initial bp) (Psm.initial sp);
      List.iter2
        (fun (a : Psm.state) (b : Psm.state) ->
          check_bool "assertion" true (Assertion.equal a.Psm.assertion b.Psm.assertion);
          check_attr (Printf.sprintf "state %d" a.Psm.id) a.Psm.attr b.Psm.attr)
        (sorted_states bp) (sorted_states sp);
      check_counts "transition counts" plain.Stream.transition_counts
        resumed.Stream.transition_counts;
      check_counts "emission counts" plain.Stream.emission_counts
        resumed.Stream.emission_counts)

(* ---------- golden streamed entry ---------- *)

(* Same style as test_golden: pin the streamed pipeline's numeric output
   on the fixed-seed RAM workload against a checked-in baseline.
   Regenerate with PSM_REGEN_GOLDEN=1 dune runtest. *)
let stream_golden_name = "Stream_RAM"

let golden_of_result (r : Stream.result) =
  let psm = r.Stream.optimized in
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"ip\": %S,\n" stream_golden_name;
  out "  \"cycles\": %d,\n" r.Stream.cycles;
  out "  \"machines\": %d,\n" (Psm.machine_count psm);
  out "  \"states\": %d,\n" (Psm.state_count psm);
  out "  \"transitions\": %d,\n" (Psm.transition_count psm);
  out "  \"props\": %d,\n" (Psm_mining.Prop_trace.Table.prop_count r.Stream.table);
  out "  \"attrs\": [\n";
  let states = sorted_states psm in
  List.iteri
    (fun i (s : Psm.state) ->
      out "    { \"id\": %d, \"mu\": %.17g, \"sigma\": %.17g, \"n\": %d }%s\n"
        s.Psm.id s.Psm.attr.Power_attr.mu s.Psm.attr.Power_attr.sigma
        s.Psm.attr.Power_attr.n
        (if i = List.length states - 1 then "" else ","))
    states;
  out "  ]\n}\n";
  Buffer.contents buf

let test_stream_golden () =
  let traces, powers = capture_suite "RAM" Psm_ips.Ram.create in
  let streamed = Stream.train_traces ~traces ~powers () in
  let regen =
    match Sys.getenv_opt "PSM_REGEN_GOLDEN" with
    | Some ("" | "0") | None -> false
    | Some _ -> true
  in
  if regen then begin
    let dir =
      if Sys.file_exists "../../../dune-project" then "../../../test/golden"
      else if Sys.file_exists "dune-project" then "test/golden"
      else "golden"
    in
    let path = Filename.concat dir (stream_golden_name ^ ".json") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (golden_of_result streamed));
    Printf.printf "regenerated %s\n" path
  end
  else begin
    let dir =
      match List.find_opt Sys.file_exists [ "golden"; "test/golden" ] with
      | Some d -> d
      | None -> Alcotest.failf "golden directory not found from %s" (Sys.getcwd ())
    in
    let path = Filename.concat dir (stream_golden_name ^ ".json") in
    if not (Sys.file_exists path) then
      Alcotest.failf "%s missing - regenerate with PSM_REGEN_GOLDEN=1 dune runtest" path;
    let g = J.of_file path in
    let psm = streamed.Stream.optimized in
    check_int "golden cycles" (J.to_int (J.member "cycles" g)) streamed.Stream.cycles;
    check_int "golden states" (J.to_int (J.member "states" g)) (Psm.state_count psm);
    check_int "golden transitions"
      (J.to_int (J.member "transitions" g))
      (Psm.transition_count psm);
    check_int "golden machines" (J.to_int (J.member "machines" g)) (Psm.machine_count psm);
    check_int "golden props"
      (J.to_int (J.member "props" g))
      (Psm_mining.Prop_trace.Table.prop_count streamed.Stream.table);
    let rows = J.to_list (J.member "attrs" g) in
    let states = sorted_states psm in
    check_int "golden attr rows" (List.length rows) (List.length states);
    List.iter2
      (fun row (s : Psm.state) ->
        check_int "golden state id" (J.to_int (J.member "id" row)) s.Psm.id;
        close "golden mu" (J.to_float (J.member "mu" row)) s.Psm.attr.Power_attr.mu;
        close "golden sigma" (J.to_float (J.member "sigma" row)) s.Psm.attr.Power_attr.sigma;
        check_int "golden n" (J.to_int (J.member "n" row)) s.Psm.attr.Power_attr.n)
      rows states
  end

(* ---------- live heap is O(model), not O(trace) ---------- *)

(* A deterministic cyclic workload: six behaviours revisited with a fixed
   64-cycle dwell, so the model stays constant while the trace length
   grows — the shape under which O(model) live memory is observable. *)
let heap_iface =
  Interface.create
    [ Signal.input "mode" 2; Signal.input "req" 1; Signal.output "busy" 1 ]

let write_cyclic_vcd path len =
  let dwell = 64 in
  let behaviours = [| (0, 0); (1, 1); (3, 0); (2, 1); (0, 1); (3, 1) |] in
  let samples = Array.make len [||] and powers = Array.make len 0. in
  for i = 0 to len - 1 do
    let mode, req = behaviours.((i / dwell) mod Array.length behaviours) in
    let busy = if mode >= 2 then 1 else req in
    samples.(i) <-
      [| Bits.of_int ~width:2 mode; Bits.of_int ~width:1 req;
         Bits.of_int ~width:1 busy |];
    powers.(i) <-
      float_of_int ((mode * 7) + (busy * 3) + 2) +. (0.05 *. float_of_int (i mod 5))
  done;
  Psm_trace.Vcd.write_file ~power:(Power_trace.of_array powers) path
    (Functional_trace.of_samples heap_iface samples)

(* Peak live major heap during [f] above the live heap before it, both
   after a full major collection; in between, sampled at the end of every
   major cycle (post-sweep, so floating garbage is excluded). Measuring
   growth rather than the absolute peak keeps heap left by earlier tests
   from hiding it. *)
let live_growth f =
  Gc.full_major ();
  let base = (Gc.quick_stat ()).Gc.live_words in
  let peak = ref base in
  let sample () =
    let live = (Gc.quick_stat ()).Gc.live_words in
    if live > !peak then peak := live
  in
  let alarm = Gc.create_alarm sample in
  let result = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f in
  Gc.full_major ();
  sample ();
  (result, !peak - base)

let test_counts_live_heap_bounded () =
  let measure len =
    let path = Filename.temp_file "psm-stream-heap" ".vcd" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    write_cyclic_vcd path len;
    let streamed, growth =
      live_growth (fun () -> Stream.train_stream ~period:1 ~provenance:`Counts [ path ])
    in
    let batch, _ = Flow.train_on_vcd_files ~period:1 [ path ] in
    let bp = batch.Flow.optimized and sp = streamed.Stream.optimized in
    let label = Printf.sprintf "%d cycles" len in
    check_int (label ^ " trained") len streamed.Stream.cycles;
    check_int (label ^ " states") (Psm.state_count bp) (Psm.state_count sp);
    check_int (label ^ " transitions") (Psm.transition_count bp)
      (Psm.transition_count sp);
    growth
  in
  let small = measure 10_000 in
  let large = measure 100_000 in
  check_bool "heap growth measured" true (small > 0);
  let ratio = float_of_int large /. float_of_int small in
  if ratio > 1.10 then
    Alcotest.failf
      "live heap grew by %d words at 100k cycles against %d at 10k (%.3fx, \
       budget 1.10x)"
      large small ratio

let suite =
  ( "stream",
    [ Alcotest.test_case "stream = batch (RAM)" `Slow test_ram;
      Alcotest.test_case "stream = batch (MultSum)" `Slow test_multsum;
      Alcotest.test_case "stream = batch (AES)" `Slow test_aes;
      Alcotest.test_case "stream = batch (Camellia)" `Slow test_camellia;
      QCheck_alcotest.to_alcotest test_random_equiv;
      Alcotest.test_case "incremental miner = batch miner" `Quick test_incremental_miner;
      Alcotest.test_case "counts provenance" `Slow test_counts_provenance;
      Alcotest.test_case "checkpoint/restore mid-trace" `Slow test_checkpoint_mid_trace;
      Alcotest.test_case "kill/resume harness (mid-pass)" `Slow test_harness_kill_resume;
      Alcotest.test_case "checkpoint rejects model files" `Quick test_checkpoint_bad_header;
      Alcotest.test_case "VCD streaming = batch ingestion" `Slow test_vcd_stream_matches_batch;
      Alcotest.test_case "resampler = Vcd.read at period > 1" `Quick
        test_resample_matches_read;
      Alcotest.test_case "train_stream checkpoint resume" `Slow test_vcd_checkpoint_resume;
      Alcotest.test_case "train_stream bounds a timestamp gap" `Quick test_vcd_gap_bound;
      Alcotest.test_case "gap bound ignores file length" `Quick test_resample_bound;
      Alcotest.test_case "counts live heap is O(model)" `Quick
        test_counts_live_heap_bounded;
      Alcotest.test_case "streamed golden (RAM)" `Slow test_stream_golden ] )
