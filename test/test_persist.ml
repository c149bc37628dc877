(* Tests for model persistence: save/load round-trips and format
   robustness. *)

module Persist = Psm_flow.Persist
module Flow = Psm_flow.Flow
module Workloads = Psm_ips.Workloads
module Psm = Psm_core.Psm
module Table = Psm_mining.Prop_trace.Table

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let train_ip name make total =
  let ip = make () in
  let suite = Workloads.suite ~parts:3 ~total_length:total ~long:false name in
  (ip, Flow.train_on_ip ip suite)

let roundtrip_case name make total eval =
  let ip, trained = train_ip name make total in
  let model = Persist.load (Persist.save trained) in
  check_int "states" (Psm.state_count trained.Flow.optimized)
    (Psm.state_count model.Persist.psm);
  check_int "transitions"
    (Psm.transition_count trained.Flow.optimized)
    (Psm.transition_count model.Persist.psm);
  check_int "props" (Table.prop_count trained.Flow.table)
    (Table.prop_count model.Persist.table);
  check_int "initial multiplicity"
    (List.length (Psm.initial trained.Flow.optimized))
    (List.length (Psm.initial model.Persist.psm));
  (* Estimates over an unseen workload must be bit-identical. *)
  let long = Workloads.long_for ~length:eval name in
  let trace, _ = Psm_ips.Capture.run ip long in
  let original = Psm_hmm.Multi_sim.simulate trained.Flow.hmm trace in
  (* Classification uses the table captured inside each PSM, so the trace
     must be re-captured for the reloaded model's table. *)
  let ip2 = make () in
  let trace2, _ = Psm_ips.Capture.run ip2 long in
  let reloaded = Psm_hmm.Multi_sim.simulate model.Persist.hmm trace2 in
  Alcotest.(check (array (float 0.))) "identical estimates"
    original.Psm_hmm.Multi_sim.estimate reloaded.Psm_hmm.Multi_sim.estimate;
  check_int "identical wrong instants" original.Psm_hmm.Multi_sim.wrong_instants
    reloaded.Psm_hmm.Multi_sim.wrong_instants

let test_roundtrip_ram () = roundtrip_case "RAM" Psm_ips.Ram.create 12000 8000
let test_roundtrip_multsum () = roundtrip_case "MultSum" Psm_ips.Multsum.create 9000 6000
let test_roundtrip_aes () = roundtrip_case "AES" Psm_ips.Aes.create 9000 6000

let test_roundtrip_preserves_regression_outputs () =
  let _, trained = train_ip "RAM" Psm_ips.Ram.create 20000 in
  let model = Persist.load (Persist.save trained) in
  let affine p =
    List.filter
      (fun (s : Psm.state) -> match s.Psm.output with Psm.Affine _ -> true | _ -> false)
      (Psm.states p)
    |> List.length
  in
  check_bool "has regression states" true (affine trained.Flow.optimized > 0);
  check_int "regression outputs preserved" (affine trained.Flow.optimized)
    (affine model.Persist.psm)

let test_save_is_stable () =
  (* Two independent trainings of the same suite serialize identically:
     the whole flow is deterministic. *)
  let _, trained1 = train_ip "MultSum" Psm_ips.Multsum.create 6000 in
  let _, trained2 = train_ip "MultSum" Psm_ips.Multsum.create 6000 in
  Alcotest.(check string) "deterministic flow" (Persist.save trained1)
    (Persist.save trained2);
  let model = Persist.load (Persist.save trained1) in
  check_int "reload state count" (Psm.state_count trained1.Flow.optimized)
    (Psm.state_count model.Persist.psm)

let test_hier_roundtrip () =
  let d = Psm_ips.Camellia.create_decomposed () in
  let suite = Workloads.suite ~parts:2 ~total_length:10000 ~long:false "Camellia" in
  let hier = Psm_flow.Hier.train d suite in
  let parts = Psm_flow.Hier.load (Psm_flow.Hier.save hier) in
  Alcotest.(check (list string)) "part names" [ "datapath"; "scrubber" ]
    (List.map (fun p -> p.Psm_flow.Hier.part_name) parts);
  (* Reloaded hierarchical model scores like the original. *)
  let long = Workloads.camellia_long ~length:12000 () in
  let original = Psm_flow.Hier.evaluate hier d long in
  let reloaded = Psm_flow.Hier.evaluate_loaded parts d long in
  Alcotest.(check (float 1e-9)) "same MRE" original.Psm_hmm.Accuracy.mre
    reloaded.Psm_hmm.Accuracy.mre

let expect_parse_error text =
  try
    ignore (Persist.load text);
    false
  with Persist.Parse_error _ -> true

let test_rejects_garbage () =
  check_bool "empty" true (expect_parse_error "");
  check_bool "wrong header" true (expect_parse_error "not a model\nfoo");
  check_bool "truncated" true
    (expect_parse_error "psm-repro-model 1\ninterface 2\nin a 1")

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_bad_version_report () =
  (* The version-mismatch error must name what was found, what was
     expected and where it came from. *)
  (match Persist.load "psm-repro-model 99\n" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Persist.Parse_error msg ->
      check_bool "names found header" true (contains msg "psm-repro-model 99");
      check_bool "names expected header" true (contains msg "psm-repro-model 1");
      check_bool "names source" true (contains msg "<string>"));
  let path = Filename.temp_file "psm-model" ".psm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "psm-repro-trainer 1\nstreaming checkpoint\n";
      close_out oc;
      match Persist.load_file path with
      | _ -> Alcotest.fail "expected Parse_error"
      | exception Persist.Parse_error msg ->
          check_bool "names file path" true (contains msg path);
          (* A trainer checkpoint is redirected, not just rejected. *)
          check_bool "redirects to trainer loader" true
            (contains msg "load_trainer_file"))

let test_rejects_tampered () =
  let _, trained = train_ip "MultSum" Psm_ips.Multsum.create 6000 in
  let text = Persist.save trained in
  (* Chop off the end marker and some lines. *)
  let truncated = String.sub text 0 (String.length text - 40) in
  check_bool "tampered rejected" true (expect_parse_error truncated)

(* ---------- semantic checks on load ---------- *)

let saved_ram =
  lazy
    (let _, trained = train_ip "RAM" Psm_ips.Ram.create 6000 in
     (Persist.save trained, Table.prop_count trained.Flow.table))

(* Rewrite the first line whose words satisfy [matches]; returns the new
   text and that line's 1-based number. *)
let edit_line text ~matches ~f =
  let lines = String.split_on_char '\n' text in
  let rec go n = function
    | [] -> Alcotest.fail "no line to edit"
    | l :: rest ->
        let ws = String.split_on_char ' ' l in
        if matches ws then (String.concat " " (f ws) :: rest, n)
        else
          let rest', at = go (n + 1) rest in
          (l :: rest', at)
  in
  let lines', at = go 1 lines in
  (String.concat "\n" lines', at)

(* The edited model must be refused with an error naming the edited
   line, not an escaped exception or a loaded model. *)
let expect_rejected_at what (text, line) =
  match Persist.load text with
  | _ -> Alcotest.failf "%s: corrupt model loaded" what
  | exception Persist.Parse_error msg ->
      check_bool
        (Printf.sprintf "%s: %S names line %d" what msg line)
        true
        (contains msg (Printf.sprintf "line %d:" line))

let test_rejects_unknown_state () =
  let text, _ = Lazy.force saved_ram in
  expect_rejected_at "transition dst 999"
    (edit_line text
       ~matches:(function [ "t"; _; _; _ ] -> true | _ -> false)
       ~f:(function [ t; src; g; _ ] -> [ t; src; g; "999" ] | ws -> ws));
  expect_rejected_at "transition src -1"
    (edit_line text
       ~matches:(function [ "t"; _; _; _ ] -> true | _ -> false)
       ~f:(function [ t; _; g; dst ] -> [ t; "-1"; g; dst ] | ws -> ws));
  expect_rejected_at "initial 999"
    (edit_line text
       ~matches:(function [ "i"; _ ] -> true | _ -> false)
       ~f:(fun _ -> [ "i"; "999" ]));
  expect_rejected_at "count dst 999"
    (edit_line text
       ~matches:(function [ "ct"; src; _; _ ] -> src <> "-1" | _ -> false)
       ~f:(function [ ct; src; _; c ] -> [ ct; src; "999"; c ] | ws -> ws))

let test_rejects_unknown_guard () =
  let text, nprops = Lazy.force saved_ram in
  check_bool "77 is past the vocabulary" true (nprops <= 77);
  expect_rejected_at "guard 77"
    (edit_line text
       ~matches:(function [ "t"; _; _; _ ] -> true | _ -> false)
       ~f:(function [ t; src; _; dst ] -> [ t; src; "77"; dst ] | ws -> ws));
  expect_rejected_at "emission prop 77"
    (edit_line text
       ~matches:(function [ "ce"; s; _; _ ] -> s <> "-1" | _ -> false)
       ~f:(function [ ce; st; _; c ] -> [ ce; st; "77"; c ] | ws -> ws))

let test_rejects_bad_counts () =
  let text, _ = Lazy.force saved_ram in
  List.iter
    (fun bad ->
      expect_rejected_at ("transition count " ^ bad)
        (edit_line text
           ~matches:(function [ "ct"; src; _; _ ] -> src <> "-1" | _ -> false)
           ~f:(function [ ct; src; dst; _ ] -> [ ct; src; dst; bad ] | ws -> ws));
      expect_rejected_at ("emission count " ^ bad)
        (edit_line text
           ~matches:(function [ "ce"; s; _; _ ] -> s <> "-1" | _ -> false)
           ~f:(function [ ce; st; p; _ ] -> [ ce; st; p; bad ] | ws -> ws)))
    [ "nan"; "inf"; "-1" ];
  (* The unedited text still loads. *)
  ignore (Persist.load text)

let suite =
  ( "persist",
    [ Alcotest.test_case "roundtrip RAM" `Slow test_roundtrip_ram;
      Alcotest.test_case "roundtrip MultSum" `Slow test_roundtrip_multsum;
      Alcotest.test_case "roundtrip AES" `Slow test_roundtrip_aes;
      Alcotest.test_case "regression outputs preserved" `Slow
        test_roundtrip_preserves_regression_outputs;
      Alcotest.test_case "deterministic save" `Quick test_save_is_stable;
      Alcotest.test_case "hierarchical roundtrip" `Slow test_hier_roundtrip;
      Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
      Alcotest.test_case "bad version report" `Quick test_bad_version_report;
      Alcotest.test_case "rejects tampered" `Quick test_rejects_tampered;
      Alcotest.test_case "rejects unknown state ids" `Quick test_rejects_unknown_state;
      Alcotest.test_case "rejects unknown guard" `Quick test_rejects_unknown_guard;
      Alcotest.test_case "rejects non-finite counts" `Quick test_rejects_bad_counts ] )
