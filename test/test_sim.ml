(* The simulation stepper against its reference: Multi_sim.Stepper must
   equal test/sim_oracle.ml cycle by cycle — power bits, state ids,
   counters, resynchronization hook calls and exports — on random
   machines with cascades, joined alternatives, self-loops and rows whose
   every successor gets banned, and an imported stepper must continue as
   if it had never stopped. Stepping never writes the model's A, two
   steppers on one model do not see each other's bans, and the stay and
   exit paths allocate nothing, nor does the sample front end
   ([Sample_tracker]) that feeds them. *)

module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module FT = Psm_trace.Functional_trace
module PT = Psm_trace.Power_trace
module Assertion = Psm_core.Assertion
module Power_attr = Psm_core.Power_attr
module Psm = Psm_core.Psm
module Table = Psm_mining.Prop_trace.Table
module Sample_tracker = Psm_mining.Sample_tracker
module Hmm = Psm_hmm.Hmm
module Multi_sim = Psm_hmm.Multi_sim
module Stepper = Multi_sim.Stepper
module Flow = Psm_flow.Flow
module Oracle = Sim_oracle

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt

(* ---------- random machines ---------- *)

(* [nprops] interned propositions over a 4-atom vocabulary. *)
let table nprops =
  let iface = Interface.create [ Signal.input "x" 4; Signal.output "o" 1 ] in
  let atoms = List.init 4 (fun v -> Psm_mining.Atomic.eq_const 0 (Bits.of_int ~width:4 v)) in
  let table = Table.create (Psm_mining.Vocabulary.create iface atoms) in
  for p = 0 to nprops - 1 do
    ignore (Table.intern_row table (Array.init 4 (fun bit -> (p lsr bit) land 1 = 1)))
  done;
  table

type world = {
  hmm : Hmm.t;
  nprops : int; (* interned; machines also name [nprops] and [nprops + 1] *)
  obs : int option array;
  hds : float array;
  config : bool * bool; (* resync enabled, hook installed *)
  cut : int; (* export/import at this cycle *)
}

let random_world seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n and bool () = Random.State.bool rng in
  let nprops = 2 + int 5 in
  (* Propositions nprops and nprops + 1 lie outside the table: only a
     machine built without interning names them. *)
  let prop () = if int 12 = 0 then nprops + int 2 else int nprops in
  let prim () =
    let p = prop () in
    let q = if int 6 = 0 then p else prop () in
    if int 3 = 0 then Assertion.Next (p, q) else Assertion.Until (p, q)
  in
  let alternative () =
    if int 3 = 0 then Assertion.seq (List.init (2 + int 2) (fun _ -> prim ())) else prim ()
  in
  let assertion () =
    if int 3 = 0 then Assertion.alt (List.init (2 + int 2) (fun _ -> alternative ()))
    else alternative ()
  in
  let nstates = 1 + int 10 in
  let psm = ref (Psm.empty (table nprops)) in
  let assertions = Array.init nstates (fun _ -> assertion ()) in
  Array.iteri
    (fun i a ->
      let mu = float_of_int (1 + int 9) in
      let attr = { Power_attr.mu; sigma = 0.; n = 1; intervals = [] } in
      let output =
        if int 4 = 0 then Psm.Affine { slope = Random.State.float rng 2.; intercept = mu }
        else Psm.Const mu
      in
      let p, id = Psm.add_state_full !psm a attr ~output ~components:[ (a, attr) ] in
      assert (id = i);
      psm := p)
    assertions;
  let exits i = Array.of_list (Assertion.exit_props assertions.(i)) in
  for _ = 1 to int (3 * nstates) do
    let src = int nstates in
    let guard = if int 4 = 0 then prop () else (let e = exits src in e.(int (Array.length e))) in
    let dst = if int 8 = 0 then src else int nstates in
    psm := Psm.add_transition !psm ~src ~guard ~dst
  done;
  (* A fan of successors none of which is entered by the guard: every
     exit through it bans each of them, down to the uniform fallback. *)
  if nstates >= 3 && int 4 <> 0 then begin
    let src = int nstates in
    let guard = (exits src).(0) in
    for dst = 0 to nstates - 1 do
      if not (List.mem guard (Assertion.entry_props assertions.(dst))) then
        psm := Psm.add_transition !psm ~src ~guard ~dst
    done
  end;
  for _ = 1 to int 3 do
    psm := Psm.add_initial !psm (int nstates)
  done;
  let transition_counts =
    if bool () then None
    else
      Some
        (List.map
           (fun (tr : Psm.transition) -> ((tr.Psm.src, tr.Psm.dst), float_of_int (int 5)))
           (Psm.transitions !psm))
  in
  let hmm = Hmm.build ?transition_counts !psm in
  (* Observations: walks through the machine's own patterns (long runs
     included), cut by noise, unknowns and out-of-table propositions. *)
  let n = 20 + int 300 in
  let obs = Array.make n None in
  let t = ref 0 in
  let emit o k =
    for _ = 1 to k do
      if !t < n then begin
        obs.(!t) <- o;
        incr t
      end
    done
  in
  let state = ref (int nstates) in
  while !t < n do
    (match int 10 with
    | 0 -> emit None (1 + int 3)
    | 1 -> emit (Some (prop ())) (1 + int 3)
    | _ ->
        let alts = Array.of_list (Assertion.alternatives assertions.(!state)) in
        let parts =
          match alts.(int (Array.length alts)) with
          | Assertion.Seq parts -> parts
          | a -> [ a ]
        in
        List.iter
          (function
            | Assertion.Until (p, _) ->
                emit (Some p) (if int 5 = 0 then 20 + int 60 else 1 + int 4)
            | Assertion.Next (p, _) -> emit (Some p) 1
            | Assertion.Seq _ | Assertion.Alt _ -> ())
          parts);
    state := int nstates
  done;
  let hds = Array.init n (fun _ -> if bool () then 0. else Random.State.float rng 8.) in
  { hmm; nprops; obs; hds; config = (bool (), int 4 <> 0); cut = int n }

(* ---------- the oracle comparison ---------- *)

let of_oracle (p : Oracle.Stepper.portable) : Stepper.portable =
  { Stepper.p_mode = p.Oracle.Stepper.p_mode;
    p_entered_via = p.Oracle.Stepper.p_entered_via;
    p_progressed = p.Oracle.Stepper.p_progressed;
    p_cycles = p.Oracle.Stepper.p_cycles;
    p_wrong_instants = p.Oracle.Stepper.p_wrong_instants;
    p_resync_events = p.Oracle.Stepper.p_resync_events;
    p_bans = p.Oracle.Stepper.p_bans }

let pp_portable (p : Stepper.portable) =
  let pairs l = String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l) in
  Printf.sprintf "%s via=%s progressed=%b cycles=%d wrong=%d resync=%d bans=[%s]"
    (match p.Stepper.p_mode with
    | `Unstarted -> "unstarted"
    | `Desynced r -> Printf.sprintf "desynced %d" r
    | `Synced (r, cs) -> Printf.sprintf "synced %d [%s]" r (pairs cs))
    (match p.Stepper.p_entered_via with Some (a, b) -> pairs [ (a, b) ] | None -> "-")
    p.Stepper.p_progressed p.Stepper.p_cycles p.Stepper.p_wrong_instants
    p.Stepper.p_resync_events (pairs p.Stepper.p_bans)

(* Features of one run, for the generator coverage check. *)
type seen = {
  mutable bans : bool;
  mutable fan_banned : bool; (* some row lost every trained successor *)
  mutable cascade : bool; (* a cursor past position 0 *)
  mutable alternatives : bool; (* two live cursors *)
  mutable desynced : bool;
  mutable far : bool; (* an out-of-table proposition reached a state *)
}

let fan_banned hmm (p : Stepper.portable) =
  let m = Hmm.state_count hmm in
  List.exists
    (fun (src, _) ->
      let row = Hmm.trained_a_row hmm src in
      let successors = List.filter (fun j -> row.(j) > 0.) (List.init m Fun.id) in
      List.compare_length_with successors 1 > 0
      && List.for_all (fun j -> List.mem (src, j) p.Stepper.p_bans) successors)
    p.Stepper.p_bans

(* The filtered score of every row from every origin on [o]: reads the
   stepper's A with its bans, row totals included, bit for bit. *)
let same_scores ~m lib orc o =
  match o with
  | None -> true
  | Some prop ->
      let rows = List.init m Fun.id in
      List.for_all
        (fun origin_row ->
          List.for_all2
            (fun (r, x) (r', y) -> r = r' && same_float x y)
            (Stepper.choice_scores lib ~origin_row ~prop rows)
            (Oracle.Stepper.choice_scores orc ~origin_row ~prop rows))
        rows

(* Steps the library and the oracle side by side; [Some msg] names the
   first difference. The library stepper is exported and re-imported at
   [w.cut]. *)
let compare_world ?seen w =
  let resync_enabled, hooked = w.config in
  let lib_log = ref [] and orc_log = ref [] in
  let hook log = if hooked then Some (fun ~cycle ~state ~prop -> log := (cycle, state, prop) :: !log) else None in
  let lib_config = { Multi_sim.resync_enabled; on_resync = hook lib_log } in
  let orc_config = { Oracle.resync_enabled; on_resync = hook orc_log } in
  let plan = Multi_sim.Plan.create w.hmm in
  let lib = ref (Stepper.of_plan ~config:lib_config plan) in
  (* The oracle bans in the model's own A; the library must not read it. *)
  let orc = Oracle.Stepper.create ~config:orc_config w.hmm in
  let n = Array.length w.obs in
  let rec go t =
    if t = n then None
    else begin
      if t = w.cut then
        lib :=
          (match Stepper.import ~config:lib_config plan (Stepper.export !lib) with
          | Ok s -> s
          | Error e -> failwith ("import: " ^ e));
      let o = w.obs.(t) and hamming = w.hds.(t) in
      Stepper.advance !lib ~hamming (Option.value o ~default:(-1));
      let pl = Stepper.power !lib and sl = Stepper.state !lib in
      let po, so = Oracle.Stepper.step_classified orc ~hamming o in
      let el = Stepper.export !lib and eo = of_oracle (Oracle.Stepper.export orc) in
      (match seen with
      | Some seen ->
          if el.Stepper.p_bans <> [] then seen.bans <- true;
          if fan_banned w.hmm el then seen.fan_banned <- true;
          (match el.Stepper.p_mode with
          | `Synced (_, cs) ->
              if List.exists (fun (_, pos) -> pos > 0) cs then seen.cascade <- true;
              if List.compare_length_with cs 1 > 0 then seen.alternatives <- true;
              (match o with Some o when o >= w.nprops -> seen.far <- true | _ -> ())
          | `Desynced _ -> seen.desynced <- true
          | `Unstarted -> ())
      | None -> ());
      if not (same_float pl po && sl = so) then
        Some (Printf.sprintf "cycle %d: library %h/s%d, oracle %h/s%d" t pl sl po so)
      else if
        Stepper.cycles !lib <> Oracle.Stepper.cycles orc
        || Stepper.wrong_instants !lib <> Oracle.Stepper.wrong_instants orc
        || Stepper.resync_events !lib <> Oracle.Stepper.resync_events orc
      then Some (Printf.sprintf "cycle %d: counters differ" t)
      else if !lib_log <> !orc_log then Some (Printf.sprintf "cycle %d: resync hook calls differ" t)
      else if not (same_scores ~m:(Hmm.state_count w.hmm) !lib orc o) then
        Some (Printf.sprintf "cycle %d: filtered choice scores differ (banned A rows)" t)
      else if el <> eo then
        Some
          (Printf.sprintf "cycle %d: exports differ\n  library %s\n  oracle  %s" t (pp_portable el)
             (pp_portable eo))
      else go (t + 1)
    end
  in
  go 0

let prop_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"stepper = oracle, cycle by cycle"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000_000))
       (fun seed ->
         match compare_world (random_world seed) with
         | None -> true
         | Some msg -> fail "seed %d: %s" seed msg))

(* The generator reaches every shape the property is meant to cover. *)
let test_coverage () =
  let seen =
    { bans = false; fan_banned = false; cascade = false; alternatives = false; desynced = false;
      far = false }
  in
  let counts = Array.make 6 0 in
  for seed = 0 to 299 do
    seen.bans <- false;
    seen.fan_banned <- false;
    seen.cascade <- false;
    seen.alternatives <- false;
    seen.desynced <- false;
    seen.far <- false;
    (match compare_world ~seen (random_world seed) with
    | None -> ()
    | Some msg -> Alcotest.failf "seed %d: %s" seed msg);
    List.iteri
      (fun i hit -> if hit then counts.(i) <- counts.(i) + 1)
      [ seen.bans; seen.fan_banned; seen.cascade; seen.alternatives; seen.desynced; seen.far ]
  done;
  List.iteri
    (fun i what ->
      Alcotest.(check bool) (Printf.sprintf "%s in some worlds (%d)" what counts.(i)) true
        (counts.(i) >= 10))
    [ "bans"; "every successor banned"; "cascade positions"; "two live alternatives";
      "desynchronized instants"; "out-of-table propositions" ]

(* S = p0 U p1 exits on p1 only into states that p1 does not enter —
   itself, X and Y — so every exit bans all three, the last ban empties
   the row and refills it uniformly, and the next exit bans them again:
   the ban log outgrows A's m² entries while staying valid. A checkpoint
   taken then must still import and continue exactly. *)
let test_long_ban_log () =
  let attr = { Power_attr.mu = 1.; sigma = 0.; n = 1; intervals = [] } in
  let psm = Psm.empty (table 4) in
  let psm, s = Psm.add_state psm (Assertion.Until (0, 1)) attr in
  let psm, x = Psm.add_state psm (Assertion.Until (2, 3)) attr in
  let psm, y = Psm.add_state psm (Assertion.Until (3, 2)) attr in
  let psm = List.fold_left (fun psm dst -> Psm.add_transition psm ~src:s ~guard:1 ~dst) psm [ s; x; y ] in
  let hmm = Hmm.build (Psm.add_initial psm s) in
  let obs = Array.init 80 (fun t -> Some (t land 1)) in
  let stepper = Stepper.create hmm in
  Array.iter (fun o -> Stepper.advance stepper ~hamming:0. (Option.value o ~default:(-1))) obs;
  let logged = List.length (Stepper.export stepper).Stepper.p_bans in
  Alcotest.(check bool) (Printf.sprintf "%d bans logged, more than 9" logged) true (logged > 9);
  List.iter
    (fun cut ->
      match
        compare_world { hmm; nprops = 4; obs; hds = Array.make 80 0.; config = (true, true); cut }
      with
      | None -> ()
      | Some msg -> Alcotest.failf "import at cycle %d: %s" cut msg)
    [ 10; 41; 79 ]

(* ---------- a trained model ---------- *)

(* A smaller cousin of the serve benchmark's stress model: an 8-bit mode
   register selecting one of 40 power behaviours. *)
let stress_iface =
  Interface.create
    [ Signal.input "mode" 8; Signal.input "req" 1; Signal.output "busy" 1 ]

let stress_sample b =
  let req = b land 1 in
  let busy = if b mod 3 = 0 then 1 else req in
  [| Bits.of_int ~width:8 b; Bits.of_int ~width:1 req; Bits.of_int ~width:1 busy |]

let stress =
  lazy
    (let nbehaviors = 40 and dwell = 12 in
     let len = nbehaviors * dwell * 2 in
     let samples = Array.init len (fun i -> stress_sample (i / dwell mod nbehaviors)) in
     let powers =
       Array.init len (fun i ->
           let b = i / dwell mod nbehaviors in
           (1.18 ** float_of_int b) *. (2. +. (0.3 *. float_of_int (b land 1))))
     in
     (Flow.train ~traces:[ FT.of_samples stress_iface samples ] ~powers:[ PT.of_array powers ] ())
       .Flow.hmm)

(* Runs of random behaviours, some outside the trained 40: the machine
   keeps losing and regaining synchronization. *)
let stress_trace seed n =
  let rng = Random.State.make [| seed |] in
  let samples = Array.make n [||] in
  let t = ref 0 in
  while !t < n do
    let b = Random.State.int rng 48 and len = 1 + Random.State.int rng 20 in
    for _ = 1 to len do
      if !t < n then begin
        samples.(!t) <- stress_sample b;
        incr t
      end
    done
  done;
  FT.of_samples stress_iface samples

let a_bits hmm =
  Array.init (Hmm.state_count hmm) (fun i -> Array.map Int64.bits_of_float (Hmm.a_row hmm i))

let test_simulate_leaves_a () =
  let hmm = Lazy.force stress in
  let before = a_bits hmm in
  let resyncs = ref 0 in
  for seed = 0 to 49 do
    let result = Multi_sim.simulate hmm (stress_trace seed 400) in
    resyncs := !resyncs + result.Multi_sim.resync_events
  done;
  Alcotest.(check bool) "the runs resynchronized" true (!resyncs > 50);
  Alcotest.(check bool) "A bitwise unchanged" true (a_bits hmm = before)

(* One library cycle on a raw sample: the front end, then the stepper. *)
let step_sample tracker stepper sample =
  Sample_tracker.observe tracker sample;
  Stepper.advance stepper ~hamming:(Sample_tracker.hamming tracker) (Sample_tracker.code tracker);
  (Stepper.power stepper, Stepper.state stepper)

(* Sample-level stepping on the trained model against the oracle, which
   is fed each instant's [Table.classify] and the trace's input Hamming
   series. *)
let test_stress_oracle () =
  let hmm = Lazy.force stress in
  let plan = Multi_sim.Plan.create hmm in
  let table = Psm.prop_table (Hmm.psm hmm) in
  for seed = 0 to 29 do
    let trace = stress_trace seed 300 in
    let lib = Stepper.of_plan plan and orc = Oracle.Stepper.create hmm in
    let tracker = Sample_tracker.create table in
    let hd = FT.input_hamming_series trace in
    FT.iter
      (fun t sample ->
        let pl, sl = step_sample tracker lib sample
        and po, so =
          Oracle.Stepper.step_classified orc ~hamming:hd.(t) (Table.classify table sample)
        in
        if not (same_float pl po && sl = so) then
          Alcotest.failf "seed %d cycle %d: library %h/s%d, oracle %h/s%d" seed t pl sl po so)
      trace;
    Alcotest.(check bool) "same export" true
      (Stepper.export lib = of_oracle (Oracle.Stepper.export orc))
  done

(* Two sessions interleaved on one model give what each gives alone:
   neither sees the other's bans, with private or shared plans. *)
let test_interleaved () =
  let hmm = Lazy.force stress in
  let traces = [| stress_trace 101 500; stress_trace 202 500 |] in
  let table = Psm.prop_table (Hmm.psm hmm) in
  let alone i =
    let s = Stepper.create hmm and tracker = Sample_tracker.create table in
    let out =
      Array.init (FT.length traces.(i)) (fun t ->
          step_sample tracker s (FT.sample traces.(i) ~time:t))
    in
    (out, Stepper.resync_events s)
  in
  let (first, resyncs), (second, _) = (alone 0, alone 1) in
  Alcotest.(check bool) "the runs resynchronize" true (resyncs > 0);
  let expected = [| first; second |] in
  let interleave steppers =
    let out = Array.map (fun tr -> Array.make (FT.length tr) (0., 0)) traces in
    let trackers = Array.map (fun _ -> Sample_tracker.create table) steppers in
    for t = 0 to 499 do
      for i = 0 to 1 do
        out.(i).(t) <- step_sample trackers.(i) steppers.(i) (FT.sample traces.(i) ~time:t)
      done
    done;
    out
  in
  let same a b =
    Array.for_all2
      (Array.for_all2 (fun (p, s) (q, r) -> same_float p q && s = r))
      a b
  in
  let plan = Multi_sim.Plan.create hmm in
  Alcotest.(check bool) "private plans" true
    (same expected (interleave [| Stepper.create hmm; Stepper.create hmm |]));
  Alcotest.(check bool) "one shared plan" true
    (same expected (interleave [| Stepper.of_plan plan; Stepper.of_plan plan |]))

(* ---------- allocation ---------- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Two states that hand over to each other: s0 = p0 U p1, s1 = p1 U p0. *)
let ping_pong () =
  let attr mu = { Power_attr.mu; sigma = 0.; n = 1; intervals = [] } in
  let psm = Psm.empty (table 3) in
  let psm, s0 = Psm.add_state psm (Assertion.Until (0, 1)) (attr 1.) in
  let psm, s1 = Psm.add_state psm (Assertion.Until (1, 0)) (attr 2.) in
  let psm = Psm.add_transition psm ~src:s0 ~guard:1 ~dst:s1 in
  let psm = Psm.add_transition psm ~src:s1 ~guard:0 ~dst:s0 in
  Hmm.build (Psm.add_initial psm s0)

let test_stay_and_exit_allocate_nothing () =
  let s = Stepper.create (ping_pong ()) in
  let p0 = 0 and p1 = 1 in
  Stepper.advance s ~hamming:0. p0;
  let baseline = minor_words (fun () -> ()) in
  let stay =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          Stepper.advance s ~hamming:0. p0
        done)
  in
  Alcotest.(check (float 0.)) "stay path: 10,000 steps" 0. (stay -. baseline);
  Alcotest.(check int) "stayed in s0" 0 (Stepper.state s);
  let exits =
    minor_words (fun () ->
        for i = 1 to 10_000 do
          Stepper.advance s ~hamming:0. (if i land 1 = 1 then p1 else p0)
        done)
  in
  Alcotest.(check (float 0.)) "exit path: 10,000 steps" 0. (exits -. baseline);
  Alcotest.(check int) "no resynchronization" 0 (Stepper.resync_events s)

(* The front end that feeds the stepper: a repeated sample, a changed
   sample the model knows and a changed sample it does not each cost no
   allocation. Over [table 3], x = 0 is proposition 1, x = 1 is
   proposition 2 and x = 2 is a row no proposition has. *)
let test_front_end_allocates_nothing () =
  let tracker = Sample_tracker.create (table 3) in
  let sample x = [| Bits.of_int ~width:4 x; Bits.of_int ~width:1 0 |] in
  let a = sample 0 and known = sample 1 and unknown = sample 2 in
  Sample_tracker.observe tracker a;
  let baseline = minor_words (fun () -> ()) in
  let words f = minor_words f -. baseline in
  Alcotest.(check (float 0.)) "repeated sample: 10,000 observations" 0.
    (words (fun () ->
         for _ = 1 to 10_000 do
           Sample_tracker.observe tracker a
         done));
  Alcotest.(check int) "repeated: code" 1 (Sample_tracker.code tracker);
  Alcotest.(check (float 0.)) "repeated: distance" 0. (Sample_tracker.hamming tracker);
  let alternate other =
    words (fun () ->
        for i = 1 to 10_000 do
          Sample_tracker.observe tracker (if i land 1 = 1 then other else a)
        done)
  in
  Alcotest.(check (float 0.)) "changed known sample: 10,000 observations" 0. (alternate known);
  Sample_tracker.observe tracker known;
  Alcotest.(check int) "known: code" 2 (Sample_tracker.code tracker);
  Alcotest.(check (float 0.)) "known: distance" 1. (Sample_tracker.hamming tracker);
  Alcotest.(check (float 0.)) "changed unknown sample: 10,000 observations" 0.
    (alternate unknown);
  Sample_tracker.observe tracker unknown;
  Alcotest.(check int) "unknown: code" (-1) (Sample_tracker.code tracker);
  Alcotest.(check (float 0.)) "unknown: distance" 1. (Sample_tracker.hamming tracker)

(* The filter's scalar step, which the whole-trace filtering entry
   points loop over: known, unknown and out-of-table codes cost no
   allocation after a session's first step. *)
let test_filter_step_allocates_nothing () =
  let filt = Psm_hmm.Filtering.create (ping_pong ()) in
  let s = Psm_hmm.Filtering.Stream.make filt in
  let codes = [| 0; 1; -1; 7 |] in
  Psm_hmm.Filtering.Stream.step filt s 0;
  let baseline = minor_words (fun () -> ()) in
  let words =
    minor_words (fun () ->
        for i = 1 to 10_000 do
          Psm_hmm.Filtering.Stream.step filt s codes.(i land 3)
        done)
  in
  Alcotest.(check (float 0.)) "10,000 steps" 0. (words -. baseline);
  Alcotest.(check int) "steps counted" 10_001 (Psm_hmm.Filtering.Stream.steps s)

(* Whole-trace filtering over an IP capture: [expected_power] allocates
   its output array (straight to the major heap at these lengths) and a
   fixed set-up in the minor heap (the sample tracker and the belief
   vectors), and nothing per cycle, as each cycle's power is written into
   the output unboxed. *)
let test_expected_power_allocates_output_only () =
  let workload length =
    Psm_ips.Workloads.ram_long ?length:(Some length) ?seed:(Some 5L) ()
  in
  let trained =
    Flow.train_on_ip (Psm_ips.Ram.create ())
      (Psm_ips.Workloads.suite ~parts:2 ~total_length:2_000 ~long:false "RAM")
  in
  let filt = Psm_hmm.Filtering.create trained.Flow.hmm in
  let minor n =
    let trace, _ = Psm_ips.Capture.run (Psm_ips.Ram.create ()) (workload n) in
    Alcotest.(check int) "capture length" n (FT.length trace);
    let power = ref [||] in
    let words = minor_words (fun () -> power := Psm_hmm.Filtering.expected_power filt trace) in
    Alcotest.(check int) "one power per cycle" n (Array.length !power);
    words
  in
  let short = minor 2_000 and long = minor 4_000 in
  if short > 1024. then Alcotest.failf "%.0f words of set-up" short;
  Alcotest.(check (float 0.)) "no words per cycle" short long

(* Resynchronization allocates per event, not per cycle of history:
   doubling a resync-heavy trace at most doubles the words. *)
let test_resync_words_linear () =
  let hmm = ping_pong () in
  let run n =
    let s = Stepper.create hmm in
    (* An exit into s1 failed at once by p2, which no state knows (a
       wrong prediction: its edge is banned), recaptured by p1, then an
       unknown sample and a jump back to s0. *)
    let pattern = [| 0; 0; 1; 2; 1; 1; -1; 0 |] in
    minor_words (fun () ->
        for i = 0 to n - 1 do
          Stepper.advance s ~hamming:0. pattern.(i mod Array.length pattern)
        done)
    |> fun words -> (words, Stepper.resync_events s)
  in
  let small, small_events = run 6_000 in
  let large, large_events = run 12_000 in
  Alcotest.(check bool) "resynchronizations happen" true (small_events >= 1_000);
  Alcotest.(check bool) "about twice the events" true (large_events >= (2 * small_events) - 1);
  if large /. small > 2.2 then
    Alcotest.failf "%.0f words for 6,000 cycles, %.0f for 12,000 (%.2fx > 2.2x)" small large
      (large /. small)

let suite =
  ( "sim",
    [ prop_oracle;
      Alcotest.test_case "oracle generator coverage" `Quick test_coverage;
      Alcotest.test_case "ban log longer than A imports" `Quick test_long_ban_log;
      Alcotest.test_case "trained model: stepper = oracle" `Quick test_stress_oracle;
      Alcotest.test_case "simulate leaves A unchanged" `Quick test_simulate_leaves_a;
      Alcotest.test_case "interleaved steppers on one model" `Quick test_interleaved;
      Alcotest.test_case "stay and exit allocate nothing" `Quick
        test_stay_and_exit_allocate_nothing;
      Alcotest.test_case "resync words linear in cycles" `Quick test_resync_words_linear;
      Alcotest.test_case "front end allocates nothing" `Quick test_front_end_allocates_nothing;
      Alcotest.test_case "filter step allocates nothing" `Quick
        test_filter_step_allocates_nothing;
      Alcotest.test_case "expected_power allocates its output only" `Quick
        test_expected_power_allocates_output_only ] )
