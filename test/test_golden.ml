(* Golden-trace regression tests.

   Each case trains on a bundled IP workload — whose stimulus generators
   use fixed splitmix64 seeds, so the training traces are bit-identical
   on every run — and pins the pipeline's numeric outputs against a
   checked-in baseline: exact state / transition / machine / proposition
   counts, and every state's power attributes ⟨μ, σ, n⟩ within a
   documented float tolerance.

   Regenerating after an intentional model change:

     PSM_REGEN_GOLDEN=1 dune runtest

   rewrites test/golden/*.json in the source tree from the current
   pipeline output (see DESIGN.md, Observability & golden baselines). *)

module Flow = Psm_flow.Flow
module Workloads = Psm_ips.Workloads
module Psm = Psm_core.Psm
module Power_attr = Psm_core.Power_attr
module J = Json_util

(* Relative tolerance for ⟨μ, σ⟩ comparisons. The pipeline is
   deterministic, so in practice baselines match bit-for-bit; the slack
   only absorbs float-op differences across compiler versions/targets. *)
let tolerance = 1e-9

let cases =
  [ ("RAM", Psm_ips.Ram.create, 4, 8_000);
    ("MultSum", Psm_ips.Multsum.create, 4, 8_000);
    ("AES", Psm_ips.Aes.create, 4, 8_000);
    ("Camellia", Psm_ips.Camellia.create, 4, 8_000) ]

let regen_requested () =
  match Sys.getenv_opt "PSM_REGEN_GOLDEN" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

(* The goldens live in test/golden of the source tree and are declared as
   test deps, so under `dune runtest` they sit next to the binary; under
   `dune exec test/main.exe` from the repo root they are at test/golden. *)
let read_dir () =
  List.find_opt Sys.file_exists [ "golden"; "test/golden" ]

(* Regeneration must escape the dune sandbox and write to the source
   tree, never to _build. *)
let regen_dir () =
  if Sys.file_exists "../../../dune-project" then "../../../test/golden"
  else if Sys.file_exists "dune-project" then "test/golden"
  else "golden"

let train (name, make, parts, total_length) =
  let ip = make () in
  let suite = Workloads.suite ~parts ~total_length ~long:false name in
  Flow.train_on_ip ip suite

let sorted_states psm =
  List.sort
    (fun (a : Psm.state) (b : Psm.state) -> compare a.Psm.id b.Psm.id)
    (Psm.states psm)

let golden_of_trained (name, _, parts, total_length) (trained : Flow.trained) =
  let psm = trained.Flow.optimized in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"ip\": %S,\n" name;
  out "  \"parts\": %d,\n" parts;
  out "  \"total_length\": %d,\n" total_length;
  out "  \"machines\": %d,\n" (Psm.machine_count psm);
  out "  \"states\": %d,\n" (Psm.state_count psm);
  out "  \"transitions\": %d,\n" (Psm.transition_count psm);
  out "  \"initials\": %d,\n" (List.length (Psm.initial psm));
  out "  \"props\": %d,\n"
    (Psm_mining.Prop_trace.Table.prop_count trained.Flow.table);
  out "  \"raw_states\": %d,\n" (Psm.state_count trained.Flow.raw);
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

let regen case trained =
  let name, _, _, _ = case in
  let dir = regen_dir () in
  if not (Sys.file_exists dir) then
    Alcotest.failf "golden regen: directory %s not found (run under dune)" dir;
  let path = Filename.concat dir (name ^ ".json") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (golden_of_trained case trained));
  Printf.printf "regenerated %s\n" path

let check_against_golden case trained =
  let name, _, _, _ = case in
  let dir =
    match read_dir () with
    | Some d -> d
    | None -> Alcotest.failf "golden directory not found from %s" (Sys.getcwd ())
  in
  let path = Filename.concat dir (name ^ ".json") in
  if not (Sys.file_exists path) then
    Alcotest.failf "%s missing - regenerate with PSM_REGEN_GOLDEN=1 dune runtest"
      path;
  let g = J.of_file path in
  let psm = trained.Flow.optimized in
  let check_count what expected actual =
    Alcotest.(check int) (name ^ " " ^ what) expected actual
  in
  check_count "machines" (J.to_int (J.member "machines" g)) (Psm.machine_count psm);
  check_count "states" (J.to_int (J.member "states" g)) (Psm.state_count psm);
  check_count "transitions"
    (J.to_int (J.member "transitions" g))
    (Psm.transition_count psm);
  check_count "initials"
    (J.to_int (J.member "initials" g))
    (List.length (Psm.initial psm));
  check_count "props"
    (J.to_int (J.member "props" g))
    (Psm_mining.Prop_trace.Table.prop_count trained.Flow.table);
  check_count "raw states"
    (J.to_int (J.member "raw_states" g))
    (Psm.state_count trained.Flow.raw);
  let golden_attrs = J.to_list (J.member "attrs" g) in
  let states = sorted_states psm in
  check_count "attr rows" (List.length golden_attrs) (List.length states);
  let close what expected actual =
    let bound = tolerance *. Float.max 1e-30 (abs_float expected) in
    if abs_float (expected -. actual) > bound then
      Alcotest.failf "%s %s: golden %.17g, got %.17g (tolerance %.1e relative)"
        name what expected actual tolerance
  in
  List.iter2
    (fun ga (s : Psm.state) ->
      let id = J.to_int (J.member "id" ga) in
      Alcotest.(check int) (Printf.sprintf "%s state id" name) id s.Psm.id;
      let label what = Printf.sprintf "state %d %s" id what in
      close (label "mu") (J.to_float (J.member "mu" ga)) s.Psm.attr.Power_attr.mu;
      close (label "sigma")
        (J.to_float (J.member "sigma" ga))
        s.Psm.attr.Power_attr.sigma;
      Alcotest.(check int) (Printf.sprintf "%s %s" name (label "n"))
        (J.to_int (J.member "n" ga))
        s.Psm.attr.Power_attr.n)
    golden_attrs states

let run_case case () =
  let trained = train case in
  if regen_requested () then regen case trained
  else check_against_golden case trained

(* The golden file must also stay in sync with itself: a truncated or
   hand-edited baseline should fail loudly, not silently pass. *)
let test_golden_files_well_formed () =
  match read_dir () with
  | None -> Alcotest.failf "golden directory not found from %s" (Sys.getcwd ())
  | Some dir ->
      List.iter
        (fun (name, _, _, _) ->
          let path = Filename.concat dir (name ^ ".json") in
          if Sys.file_exists path then begin
            let g = J.of_file path in
            Alcotest.(check string)
              (name ^ " golden names its IP")
              name
              (J.to_string (J.member "ip" g));
            let states = J.to_int (J.member "states" g) in
            Alcotest.(check int)
              (name ^ " one attr row per state")
              states
              (List.length (J.to_list (J.member "attrs" g)))
          end)
        cases

(* ---------- VCD writer bytes ---------- *)

(* A trace that exercises every writer path: 1-, 2-, 33- and 128-bit
   signals, vectors whose leading zeros are trimmed, more than 94
   variables (so two-character identifier codes appear in value changes
   and in the power variable's code), repeated samples (timestamps with
   no change records) and power values that need all 17 digits. *)
let writer_trace () =
  let module Bits = Psm_bits.Bits in
  let module Signal = Psm_trace.Signal in
  let named =
    [ Signal.input "clk" 1; Signal.input "mode" 2; Signal.input "data" 33;
      Signal.output "block" 128 ]
  in
  let filler =
    List.init 96 (fun i ->
        if i mod 2 = 0 then Signal.input (Printf.sprintf "f%d" i) 1
        else Signal.output (Printf.sprintf "g%d" i) 3)
  in
  let iface = Psm_trace.Interface.create (named @ filler) in
  let data = [| 0; 1; 5; 1 lsl 32; (1 lsl 33) - 1; 5; 5; 6 |] in
  let block t =
    match t with
    | 0 -> Bits.zero 128
    | 1 -> Bits.of_int ~width:128 1
    | 2 -> Bits.shift_left (Bits.of_int ~width:128 1) 127
    | 3 -> Bits.ones 128
    | _ -> Bits.of_hex_string ~width:128 "0000_0000_0000_0000_dead_beef_0000_0f00"
  in
  let sample t =
    Array.of_list
      ([ Bits.of_int ~width:1 (t land 1);
         Bits.of_int ~width:2 (t mod 4);
         Bits.of_int ~width:33 data.(t);
         block t ]
      @ List.init 96 (fun i ->
            let w = if i mod 2 = 0 then 1 else 3 in
            Bits.of_int ~width:w (if i >= 90 then (t * (i + 1)) land ((1 lsl w) - 1) else 0)))
  in
  (* Instant 6 repeats instant 5: its timestamp carries no value change. *)
  let samples = Array.init 8 (fun t -> sample (if t = 6 then 5 else t)) in
  let power =
    Psm_trace.Power_trace.of_array
      [| 0.; 0.1; 1e-7; 3.; 2.5e-300; 123456.789; 1. /. 3.; 4.5e-05 |]
  in
  (Psm_trace.Functional_trace.of_samples iface samples, power)

let writer_golden = "vcd_writer.vcd"

let test_vcd_writer_golden () =
  let trace, power = writer_trace () in
  let text = Psm_trace.Vcd.to_string ~power trace in
  if regen_requested () then begin
    let path = Filename.concat (regen_dir ()) writer_golden in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    Printf.printf "regenerated %s\n" path
  end
  else
    match read_dir () with
    | None -> Alcotest.failf "golden directory not found from %s" (Sys.getcwd ())
    | Some dir ->
        let golden =
          In_channel.with_open_bin (Filename.concat dir writer_golden) In_channel.input_all
        in
        Alcotest.(check string) "writer output is byte-identical" golden text

let suite =
  ( "golden",
    Alcotest.test_case "golden files well-formed" `Quick
      test_golden_files_well_formed
    :: Alcotest.test_case "vcd writer bytes" `Quick test_vcd_writer_golden
    :: List.map
         (fun ((name, _, _, _) as case) ->
           Alcotest.test_case (name ^ " matches golden") `Slow (run_case case))
         cases )
