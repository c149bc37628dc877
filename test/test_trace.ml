(* Tests for Psm_trace: signals, interfaces, functional/power traces,
   VCD and CSV round-trips, trace statistics. *)

module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module FT = Psm_trace.Functional_trace
module PT = Psm_trace.Power_trace
module Vcd = Psm_trace.Vcd
module Csv = Psm_trace.Csv
module Reader = Psm_trace.Reader
module Stats = Psm_trace.Trace_stats

let iface () =
  Interface.create
    [ Signal.input "en" 1; Signal.input "data" 8; Signal.output "q" 8 ]

let sample en data q =
  [| Bits.of_bool en; Bits.of_int ~width:8 data; Bits.of_int ~width:8 q |]

let simple_trace () =
  FT.of_samples (iface ())
    [| sample false 0 0; sample true 0x12 0; sample true 0x34 0x12;
       sample true 0x34 0x34; sample false 0x34 0x34 |]

(* ---------- signals / interface ---------- *)

let test_signal_validation () =
  Alcotest.check_raises "zero width" (Invalid_argument "Signal: width must be positive")
    (fun () -> ignore (Signal.input "x" 0));
  Alcotest.check_raises "empty name" (Invalid_argument "Signal: name must be non-empty")
    (fun () -> ignore (Signal.output "" 4))

let test_interface_lookup () =
  let i = iface () in
  Alcotest.(check int) "arity" 3 (Interface.arity i);
  Alcotest.(check int) "index" 1 (Interface.index i "data");
  Alcotest.(check string) "signal" "q" (Interface.signal i 2).Signal.name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Interface.index i "nope"))

let test_interface_widths () =
  let i = iface () in
  Alcotest.(check int) "inputs" 9 (Interface.total_input_width i);
  Alcotest.(check int) "outputs" 8 (Interface.total_output_width i);
  Alcotest.(check int) "n inputs" 2 (List.length (Interface.inputs i));
  Alcotest.(check int) "n outputs" 1 (List.length (Interface.outputs i))

let test_interface_duplicate () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Interface.create: duplicate signal name x")
    (fun () -> ignore (Interface.create [ Signal.input "x" 1; Signal.output "x" 2 ]))

(* ---------- functional traces ---------- *)

let test_trace_accessors () =
  let t = simple_trace () in
  Alcotest.(check int) "length" 5 (FT.length t);
  Alcotest.(check int) "value" 0x34 (Bits.to_int (FT.value t ~time:2 ~signal:1));
  Alcotest.(check int) "by name" 0x12 (Bits.to_int (FT.value_by_name t ~time:2 "q"))

let test_builder_matches_of_samples () =
  let t = simple_trace () in
  let b = FT.Builder.create (iface ()) in
  FT.iter (fun _ s -> FT.Builder.append b s) t;
  Alcotest.(check bool) "equal" true (FT.equal t (FT.Builder.finish b))

let test_builder_validates () =
  let b = FT.Builder.create (iface ()) in
  Alcotest.check_raises "arity"
    (Invalid_argument "Functional_trace: sample arity 1, interface arity 3")
    (fun () -> FT.Builder.append b [| Bits.zero 1 |]);
  Alcotest.check_raises "width"
    (Invalid_argument "Functional_trace: signal data has width 8, sample value width 7")
    (fun () -> FT.Builder.append b [| Bits.zero 1; Bits.zero 7; Bits.zero 8 |])

let test_sub_append () =
  let t = simple_trace () in
  let first = FT.sub t ~start:0 ~stop:1 and rest = FT.sub t ~start:2 ~stop:4 in
  Alcotest.(check bool) "append inverse of sub" true (FT.equal t (FT.append first rest))

let test_input_hamming () =
  let t = simple_trace () in
  let hd = FT.input_hamming_series t in
  (* t0->t1: en flips (1) + data 0 -> 0x12 (2 bits) = 3.
     t1->t2: data 0x12 -> 0x34 (HD of 0x26 = 3 bits) = 3.
     t2->t3: nothing changes. t3->t4: en flips = 1. *)
  Alcotest.(check (array (float 1e-9))) "series" [| 0.; 3.; 3.; 0.; 1. |] hd

let test_wide_value_trace () =
  (* 128-bit signals flow through traces unharmed. *)
  let i = Interface.create [ Signal.input "k" 128; Signal.output "o" 1 ] in
  let v = Bits.of_hex_string ~width:128 "0123456789abcdeffedcba9876543210" in
  let t = FT.of_samples i [| [| v; Bits.of_bool true |] |] in
  Alcotest.(check string) "roundtrip" "0123456789abcdeffedcba9876543210"
    (Bits.to_hex_string (FT.value t ~time:0 ~signal:0))

(* ---------- power traces ---------- *)

let test_power_attributes () =
  let p = PT.of_array [| 1.; 2.; 3.; 4.; 100. |] in
  let mu, sigma, n = PT.attributes p ~start:0 ~stop:3 in
  Alcotest.(check (float 1e-9)) "mu" 2.5 mu;
  Alcotest.(check (float 1e-9)) "sigma" (sqrt (5. /. 3.)) sigma;
  Alcotest.(check int) "n" 4 n

let test_power_rejects_negative () =
  List.iter
    (fun (what, bad) ->
      Alcotest.check_raises what
        (Invalid_argument
           "Power_trace.of_array: energies must be finite and non-negative")
        (fun () -> ignore (PT.of_array [| 1.; bad |])))
    [ ("negative", -2.); ("nan", nan); ("+inf", infinity); ("-inf", neg_infinity) ]

let test_power_total_mean () =
  let p = PT.of_array [| 1.; 2.; 3. |] in
  Alcotest.(check (float 1e-9)) "total" 6. (PT.total_energy p);
  Alcotest.(check (float 1e-9)) "mean" 2. (PT.mean p)

let test_mre () =
  let reference = PT.of_array [| 10.; 10.; 10.; 10. |] in
  let estimate = PT.of_array [| 11.; 9.; 10.; 10. |] in
  Alcotest.(check (float 1e-9)) "mre" 0.05
    (PT.mean_relative_error ~reference ~estimate);
  Alcotest.(check (float 1e-9)) "perfect" 0.
    (PT.mean_relative_error ~reference ~estimate:reference)

let test_mre_zero_reference () =
  (* Zero-reference instants are normalized by the trace mean. *)
  let reference = PT.of_array [| 0.; 10. |] in
  let estimate = PT.of_array [| 5.; 10. |] in
  Alcotest.(check (float 1e-9)) "zero denominator handled" 0.5
    (PT.mean_relative_error ~reference ~estimate)

(* ---------- VCD ---------- *)

let test_vcd_roundtrip () =
  let t = simple_trace () in
  let power = PT.of_array [| 0.5; 1.5; 2.5; 3.5; 4.5 |] in
  let parsed = Vcd.parse (Vcd.to_string ~power t) in
  Alcotest.(check bool) "functional" true (FT.equal t parsed.Vcd.trace);
  (match parsed.Vcd.power with
  | Some p ->
      Alcotest.(check (array (float 1e-12))) "power" (PT.to_array power) (PT.to_array p)
  | None -> Alcotest.fail "power trace lost");
  Alcotest.(check string) "timescale" "1ns" parsed.Vcd.timescale

let test_vcd_no_power () =
  let t = simple_trace () in
  let parsed = Vcd.parse (Vcd.to_string t) in
  Alcotest.(check bool) "functional" true (FT.equal t parsed.Vcd.trace);
  Alcotest.(check bool) "no power" true (parsed.Vcd.power = None)

let test_vcd_preserves_directions () =
  let t = simple_trace () in
  let parsed = Vcd.parse (Vcd.to_string t) in
  Alcotest.(check bool) "interface equal" true
    (Interface.equal (FT.interface t) (FT.interface parsed.Vcd.trace))

(* A hand-written VCD in a style other tools emit: x values, $dumpvars,
   sparse change records. *)
let foreign_vcd =
  "$timescale 10 ps $end\n\
   $scope module top $end\n\
   $var wire 4 ! count $end\n\
   $var wire 1 \" clk $end\n\
   $upscope $end\n\
   $enddefinitions $end\n\
   #0\n$dumpvars\nbxxxx !\n0\"\n$end\n\
   #1\nb101 !\n1\"\n\
   #2\n0\"\n"

let test_vcd_foreign_input () =
  let parsed = Vcd.parse foreign_vcd in
  Alcotest.(check int) "instants" 3 (FT.length parsed.Vcd.trace);
  Alcotest.(check int) "x maps to 0" 0
    (Bits.to_int (FT.value_by_name parsed.Vcd.trace ~time:0 "count"));
  Alcotest.(check int) "padded vector" 5
    (Bits.to_int (FT.value_by_name parsed.Vcd.trace ~time:1 "count"));
  (* Unchanged values persist. *)
  Alcotest.(check int) "carries forward" 5
    (Bits.to_int (FT.value_by_name parsed.Vcd.trace ~time:2 "count"));
  Alcotest.(check string) "timescale" "10ps" parsed.Vcd.timescale

let test_vcd_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Vcd.parse "not a vcd at all");
       false
     with Vcd.Parse_error _ -> true)

let test_vcd_file_io () =
  let t = simple_trace () in
  let path = Filename.temp_file "psm" ".vcd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Vcd.write_file path t;
      let parsed = Vcd.parse_file path in
      Alcotest.(check bool) "roundtrip" true (FT.equal t parsed.Vcd.trace))

(* ---------- VCD timestamp semantics ---------- *)

let vcd_1bit body =
  "$timescale 1ns $end\n$var wire 1 ! a $end\n$enddefinitions $end\n" ^ body

let vcd_4bit body =
  "$timescale 1ns $end\n$var wire 4 ! a $end\n$enddefinitions $end\n" ^ body

let values_of parsed =
  Array.init (FT.length parsed.Vcd.trace) (fun t ->
      Bits.to_int (FT.value parsed.Vcd.trace ~time:t ~signal:0))

let test_vcd_gap_gcd () =
  (* #0/#5/#10: stride inferred as GCD 5, one sample per timestamp. *)
  let p = Vcd.parse (vcd_1bit "#0\n1!\n#5\n0!\n#10\n1!\n") in
  Alcotest.(check int) "uniform gaps" 3 (FT.length p.Vcd.trace);
  Alcotest.(check (array int)) "values" [| 1; 0; 1 |] (values_of p);
  (* #0/#5/#20: GCD still 5, held values fill the #10/#15 gap. *)
  let p = Vcd.parse (vcd_1bit "#0\n1!\n#5\n0!\n#20\n1!\n") in
  Alcotest.(check int) "held across gap" 5 (FT.length p.Vcd.trace);
  Alcotest.(check (array int)) "held values" [| 1; 0; 0; 0; 1 |] (values_of p)

let test_vcd_explicit_period () =
  (* Timestamps 0/3/10 sampled on a period-5 grid: each grid point takes
     the latest value at or before it, and the grid covers the last
     change. *)
  let text = vcd_1bit "#0\n1!\n#3\n0!\n#10\n1!\n" in
  let p = Vcd.parse ~period:5 text in
  Alcotest.(check (array int)) "period 5" [| 1; 0; 1 |] (values_of p);
  (* The same text without a period: GCD(3,7) = 1, so every instant. *)
  let p = Vcd.parse text in
  Alcotest.(check int) "gcd 1" 11 (FT.length p.Vcd.trace);
  Alcotest.(check (array int)) "gcd 1 values"
    [| 1; 1; 1; 0; 0; 0; 0; 0; 0; 0; 1 |] (values_of p)

let test_vcd_backwards_time () =
  match Vcd.parse (vcd_1bit "#0\n1!\n#5\n0!\n#3\n1!\n") with
  | _ -> Alcotest.fail "backwards time accepted"
  | exception Vcd.Parse_error e ->
      Alcotest.(check int) "line" 8 e.Reader.line;
      Alcotest.(check bool) "message" true
        (String.length e.Reader.message > 9
        && String.sub e.Reader.message 0 9 = "timestamp")

let test_vcd_equal_timestamps_merge () =
  (* A repeated #t extends the same sample instead of duplicating it. *)
  let p = Vcd.parse (vcd_1bit "#0\n1!\n#0\n0!\n#1\n1!\n") in
  Alcotest.(check (array int)) "merged" [| 0; 1 |] (values_of p)

(* ---------- VCD 4-state semantics ---------- *)

let test_vcd_xz_left_extension () =
  (* bx1 on a 4-bit var: leftmost digit x, so the missing upper bits
     extend with x — 3 unknown bits in all, value 0001 after coercion. *)
  let p = Vcd.parse (vcd_4bit "#0\nbx1 !\n") in
  Alcotest.(check (array int)) "x-extended value" [| 1 |] (values_of p);
  Alcotest.(check int) "x-extension counted" 3
    p.Vcd.stats.Reader.unknowns_coerced;
  (* bz: every bit of the variable is unknown. *)
  let p = Vcd.parse (vcd_4bit "#0\nbz !\n") in
  Alcotest.(check (array int)) "z value" [| 0 |] (values_of p);
  Alcotest.(check int) "z-extension counted" 4 p.Vcd.stats.Reader.unknowns_coerced;
  (* b01: leftmost digit 0, classic zero-extension, nothing unknown. *)
  let p = Vcd.parse (vcd_4bit "#0\nb01 !\n") in
  Alcotest.(check (array int)) "zero-extended" [| 1 |] (values_of p);
  Alcotest.(check int) "no unknowns" 0 p.Vcd.stats.Reader.unknowns_coerced

let test_vcd_unknown_policies () =
  let text = vcd_4bit "#0\nbx1 !\n" in
  let p = Vcd.parse ~unknowns:Reader.Zero text in
  Alcotest.(check int) "zero policy silent" 0 p.Vcd.stats.Reader.unknowns_coerced;
  Alcotest.(check (array int)) "zero policy value" [| 1 |] (values_of p);
  Alcotest.(check bool) "reject policy raises" true
    (match Vcd.parse ~unknowns:Reader.Reject text with
    | _ -> false
    | exception Vcd.Parse_error _ -> true);
  (* Scalar unknowns go through the same policy. *)
  Alcotest.(check bool) "scalar x rejected" true
    (match Vcd.parse ~unknowns:Reader.Reject (vcd_1bit "#0\nx!\n") with
    | _ -> false
    | exception Vcd.Parse_error _ -> true)

let test_vcd_trailing_vector_token () =
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Vcd.parse (vcd_4bit "#0\nb10") with
  | _ -> Alcotest.fail "trailing vector accepted"
  | exception Vcd.Parse_error e ->
      Alcotest.(check bool) "precise b error" true
        (contains e.Reader.message "not followed by an identifier code"));
  match Vcd.parse (vcd_4bit "#0\nb10 !\nr1.5") with
  | _ -> Alcotest.fail "trailing real accepted"
  | exception Vcd.Parse_error e ->
      Alcotest.(check bool) "precise r error" true
        (contains e.Reader.message "not followed by an identifier code")

let test_vcd_oversized_vector () =
  Alcotest.(check bool) "oversized rejected" true
    (match Vcd.parse (vcd_1bit "#0\nb101 !\n") with
    | _ -> false
    | exception Vcd.Parse_error _ -> true)

let test_vcd_error_position () =
  (* The bad scalar sits on line 8, column 1. *)
  match Vcd.parse (vcd_1bit "#0\n0!\n#1\n1!\nq!\n") with
  | _ -> Alcotest.fail "garbage accepted"
  | exception Vcd.Parse_error e ->
      Alcotest.(check int) "line" 8 e.Reader.line;
      Alcotest.(check int) "column" 1 e.Reader.column;
      Alcotest.(check string) "snippet" "q!" e.Reader.snippet

(* ---------- VCD streaming ---------- *)

let stream_vcd =
  "$timescale 1ns $end\n\
   $var wire 2 ! a $end\n\
   $var real 64 \" __power__ $end\n\
   $enddefinitions $end\n\
   #0\nb10 !\nr1.5 \"\n#5\nb01 !\nr2.5 \"\n#20\nb11 !\nr0 \"\n"

let test_vcd_stream () =
  let text = stream_vcd in
  let times = ref [] and vals = ref [] and pows = ref [] in
  let stats =
    Vcd.stream (Reader.of_string text)
      ~init:(fun h ->
        Alcotest.(check bool) "has power" true h.Vcd.has_power;
        Alcotest.(check int) "arity" 1 (Interface.arity h.Vcd.interface);
        Alcotest.(check string) "timescale" "1ns" h.Vcd.timescale)
      ~sample:(fun ~time values ~power ->
        times := time :: !times;
        vals := Bits.to_int values.(0) :: !vals;
        pows := power :: !pows)
  in
  (* Raw timestamps, no resampling: the stream caller owns gap policy. *)
  Alcotest.(check (list int)) "raw times" [ 0; 5; 20 ] (List.rev !times);
  Alcotest.(check (list int)) "values" [ 2; 1; 3 ] (List.rev !vals);
  Alcotest.(check (list (float 0.))) "powers" [ 1.5; 2.5; 0. ] (List.rev !pows);
  Alcotest.(check int) "samples" 3 stats.Reader.samples;
  Alcotest.(check int) "bytes" (String.length text) stats.Reader.bytes

(* A power token that is negative, NaN or infinite is rejected where it
   stands, by the batch reader and the streaming reader alike. *)
let test_vcd_rejects_bad_power () =
  let text tok =
    "$timescale 1ns $end\n\
     $var wire 2 ! a $end\n\
     $var real 64 \" __power__ $end\n\
     $enddefinitions $end\n\
     #0\nb10 !\nr1.5 \"\n#5\nb01 !\n" ^ tok ^ " \"\n#20\nb11 !\nr0 \"\n"
  in
  List.iter
    (fun tok ->
      let located what = function
        | Vcd.Parse_error e ->
            Alcotest.(check int) (what ^ " " ^ tok ^ " line") 10 e.Reader.line;
            Alcotest.(check string) (what ^ " " ^ tok ^ " message")
              ("power value " ^ tok ^ " is not finite and non-negative")
              e.Reader.message
        | exn -> raise exn
      in
      (match Vcd.parse (text tok) with
      | _ -> Alcotest.failf "read accepted power %s" tok
      | exception exn -> located "read" exn);
      match
        Vcd.stream (Reader.of_string (text tok))
          ~init:(fun _ -> ())
          ~sample:(fun ~time:_ _ ~power:_ -> ())
      with
      | _ -> Alcotest.failf "stream accepted power %s" tok
      | exception exn -> located "stream" exn)
    [ "r-5"; "rnan"; "rinf" ];
  (* The same tokens in a CSV power column. *)
  List.iter
    (fun cell ->
      match Csv.parse ("time,a:2:in,power\n0,2,1.5\n1,1," ^ cell ^ "\n") with
      | _ -> Alcotest.failf "csv accepted power %s" cell
      | exception Csv.Parse_error e ->
          Alcotest.(check int) ("csv " ^ cell ^ " line") 3 e.Reader.line)
    [ "-5"; "nan"; "inf" ]

let big_trace n =
  let samples =
    Array.init n (fun t ->
        let data = (t * 7919) land 0xFF in
        sample (t land 3 = 0) data ((data * 5 + t) land 0xFF))
  in
  FT.of_samples (iface ()) samples

(* A writer document with [q!] (an undeclared identifier) injected at
   two places: every reader must report the first one. *)
let two_errors_vcd () =
  let text = Vcd.to_string (big_trace 20_000) in
  let lines = String.split_on_char '\n' text in
  let nlines = List.length lines in
  let inject = [ nlines * 2 / 5; nlines * 4 / 5 ] in
  List.concat (List.mapi (fun i l -> if List.mem i inject then [ "q!"; l ] else [ l ]) lines)
  |> String.concat "\n"

(* A writer document with a long $comment in its value-change section,
   full of decoy "#t" lines that are not timestamps. *)
let decoy_comment_vcd () =
  let text = Vcd.to_string (big_trace 20_000) in
  let comment =
    "$comment\n"
    ^ String.concat "\n"
        (List.init 4000 (fun i -> Printf.sprintf "#%d decoy decoy decoy" i))
    ^ "\n$end"
  in
  let lines = String.split_on_char '\n' text in
  let mid = List.length lines / 2 in
  List.concat (List.mapi (fun i l -> if i = mid then [ comment; l ] else [ l ]) lines)
  |> String.concat "\n"

(* ---------- VCD header limits and gap bound ---------- *)

let parse_error what text =
  match Vcd.parse text with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Vcd.Parse_error e -> e

let check_located what ~line (e : Reader.error) message =
  Alcotest.(check int) (what ^ " line") line e.Reader.line;
  Alcotest.(check int) (what ^ " column") 1 e.Reader.column;
  Alcotest.(check string) (what ^ " message") message e.Reader.message

let with_vars vars body = "$timescale 1ns $end\n" ^ vars ^ "$enddefinitions $end\n" ^ body

let test_vcd_duplicate_name () =
  (* Two variables named a under different codes: a located parse error
     at the second $var, not an escape from Interface.create. *)
  let e =
    parse_error "duplicate"
      (with_vars "$var wire 1 ! a $end\n$var wire 2 \" a $end\n" "#0\n1!\n")
  in
  check_located "duplicate name" ~line:3 e "duplicate signal name a";
  Alcotest.(check string) "snippet" "$var" e.Reader.snippet

let test_vcd_alias () =
  (* IEEE 1364 aliases: b reuses a's code, so both name one variable. *)
  let p =
    Vcd.parse
      (with_vars "$var wire 2 ! a $end\n$var wire 2 ! b $end\n" "#0\nb10 !\n#1\nb01 !\n")
  in
  let iface = FT.interface p.Vcd.trace in
  Alcotest.(check int) "one signal" 1 (Interface.arity iface);
  Alcotest.(check string) "first name kept" "a" (Interface.signal iface 0).Signal.name;
  Alcotest.(check (array int)) "values" [| 2; 1 |] (values_of p);
  (* A code reused at another width is no alias. *)
  let e =
    parse_error "alias width"
      (with_vars "$var wire 2 ! a $end\n$var wire 3 ! b $end\n" "#0\nb10 !\n")
  in
  Alcotest.(check int) "alias width line" 3 e.Reader.line

(* Only [__power__] is the power trace. A renamed power variable, or a
   second real variable, is refused at its $var by the batch reader and
   by the streaming header alike; an alias of the power code is fine. *)
let test_vcd_power_variable () =
  let stream_error what text =
    match
      Vcd.stream (Reader.of_string text) ~init:ignore ~sample:(fun ~time:_ _ ~power:_ -> ())
    with
    | _ -> Alcotest.failf "%s: stream accepted" what
    | exception Vcd.Parse_error e -> e
  in
  let refused what vars ~line message =
    let text = with_vars vars "#0\n1!\nr1.5 \"\n" in
    check_located what ~line (parse_error what text) message;
    check_located (what ^ " (stream)") ~line (stream_error what text) message
  in
  refused "renamed" "$var wire 1 ! a $end\n$var real 64 \" __other__ $end\n" ~line:3
    "real variable __other__ is not the power variable __power__";
  refused "power plus another real"
    "$var wire 1 ! a $end\n$var real 64 \" __power__ $end\n$var real 64 # energy $end\n"
    ~line:4 "real variable energy is not the power variable __power__";
  refused "two power codes"
    "$var wire 1 ! a $end\n$var real 64 \" __power__ $end\n$var real 64 # __power__ $end\n"
    ~line:4 "second real variable __power__ under code #";
  let p =
    Vcd.parse
      (with_vars "$var wire 1 ! a $end\n$var real 64 \" __power__ $end\n$var real 64 \" p $end\n"
         "#0\n1!\nr1.5 \"\n#1\nr2.5 \"\n")
  in
  Alcotest.(check (option (array (float 0.))))
    "alias of the power code" (Some [| 1.5; 2.5 |])
    (Option.map PT.to_array p.Vcd.power)

let test_vcd_max_width () =
  let e =
    parse_error "huge width"
      (with_vars "$var wire 4611686018427387903 ! a $end\n" "#0\nb1 !\n")
  in
  check_located "huge width" ~line:2 e
    (Printf.sprintf "$var a is 4611686018427387903 bits wide, over the %d-bit limit"
       Vcd.max_width);
  let e =
    parse_error "one bit over"
      (with_vars
         (Printf.sprintf "$var wire 1 ! a $end\n$var wire %d \" b $end\n" (Vcd.max_width + 1))
         "#0\n1!\n")
  in
  Alcotest.(check int) "one bit over line" 3 e.Reader.line;
  let p = Vcd.parse (with_vars (Printf.sprintf "$var wire %d ! a $end\n" Vcd.max_width) "#0\nb1 !\n") in
  Alcotest.(check int) "the limit itself" Vcd.max_width
    (Bits.width (FT.value p.Vcd.trace ~time:0 ~signal:0));
  Alcotest.(check (array int)) "its value" [| 1 |] (values_of p)

let test_vcd_gap_bound () =
  (* A million held samples are under the bound; the run structure still
     comes from the reader. *)
  let p = Vcd.parse (vcd_1bit "#0\n1!\n#1\n0!\n#1000000\n1!\n") in
  Alcotest.(check int) "expanded" 1_000_001 (FT.length p.Vcd.trace);
  Alcotest.(check int) "three runs" 3 (Psm_trace.Runs.count (FT.runs p.Vcd.trace));
  (* One grid point past the bound, and far past it: rejected at the last
     timestamp before anything is expanded. *)
  List.iter
    (fun last ->
      let e =
        parse_error "gap" (vcd_1bit (Printf.sprintf "#0\n1!\n#1\n0!\n#%d\n1!\n" last))
      in
      check_located
        (Printf.sprintf "gap to #%d" last)
        ~line:8 e
        (Printf.sprintf
           "timestamps #0..#%d at stride 1 make %d samples, over the %d-sample limit" last
           (last + 1) Vcd.max_samples))
    [ Vcd.max_samples; 100_000_001 ]

(* ---------- CSV ---------- *)

let test_csv_roundtrip () =
  let t = simple_trace () in
  let power = PT.of_array [| 0.25; 1.; 2.; 3.; 4. |] in
  let trace', power' = Csv.parse (Csv.to_string ~power t) in
  Alcotest.(check bool) "functional" true (FT.equal t trace');
  (match power' with
  | Some p ->
      Alcotest.(check (array (float 1e-12))) "power" (PT.to_array power) (PT.to_array p)
  | None -> Alcotest.fail "power lost")

let test_csv_no_power () =
  let t = simple_trace () in
  let trace', power' = Csv.parse (Csv.to_string t) in
  Alcotest.(check bool) "functional" true (FT.equal t trace');
  Alcotest.(check bool) "no power" true (power' = None)

let test_csv_rejects_bad_header () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Csv.parse "a,b,c\n1,2,3\n");
       false
     with Csv.Parse_error _ -> true)

let test_csv_error_position () =
  (* The malformed cell sits on line 3 of the file. *)
  match Csv.parse "time,a:4:in\n0,1\n1,zz\n" with
  | _ -> Alcotest.fail "bad hex accepted"
  | exception Csv.Parse_error e ->
      Alcotest.(check int) "line" 3 e.Reader.line;
      Alcotest.(check string) "snippet" "1,zz" e.Reader.snippet

(* ---------- SAIF ---------- *)

let test_saif_counters () =
  let t = simple_trace () in
  (* en: 0 1 1 1 0 -> T1 = 3, TC = 2. *)
  let c = Psm_trace.Saif.bit_counters t ~signal:0 ~bit:0 in
  Alcotest.(check int) "T0" 2 c.Psm_trace.Saif.t0;
  Alcotest.(check int) "T1" 3 c.Psm_trace.Saif.t1;
  Alcotest.(check int) "TC" 2 c.Psm_trace.Saif.tc

let test_saif_document () =
  let t = simple_trace () in
  let saif = Psm_trace.Saif.to_string ~design:"demo" t in
  let contains needle =
    let n = String.length needle and h = String.length saif in
    let rec go i = i + n <= h && (String.sub saif i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "(SAIFILE");
  Alcotest.(check bool) "design" true (contains "(DESIGN \"demo\")");
  Alcotest.(check bool) "duration" true (contains "(DURATION 5)");
  Alcotest.(check bool) "bit select" true (contains "data\\[7\\]");
  Alcotest.(check bool) "balanced parens" true
    (String.fold_left (fun acc c -> acc + (match c with '(' -> 1 | ')' -> -1 | _ -> 0)) 0 saif
     = 0)

let test_saif_reader_roundtrip () =
  let t = simple_trace () in
  let p = Psm_trace.Saif.parse (Psm_trace.Saif.to_string ~design:"demo" t) in
  Alcotest.(check (option string)) "design" (Some "demo") p.Psm_trace.Saif.design;
  Alcotest.(check (option int)) "duration" (Some 5) p.Psm_trace.Saif.duration;
  (* Nets come back in writer order, instance-qualified, unescaped, with
     the counters the writer computed. *)
  let iface = FT.interface t in
  let expected =
    List.concat_map
      (fun signal ->
        let s = Interface.signal iface signal in
        List.init s.Signal.width (fun bit ->
            let name =
              if s.Signal.width = 1 then Printf.sprintf "demo/%s" s.Signal.name
              else Printf.sprintf "demo/%s[%d]" s.Signal.name bit
            in
            (name, Psm_trace.Saif.bit_counters t ~signal ~bit)))
      (List.init (Interface.arity iface) Fun.id)
  in
  Alcotest.(check int) "net count" (List.length expected)
    (List.length p.Psm_trace.Saif.nets);
  List.iter2
    (fun (en, ec) (gn, (gc : Psm_trace.Saif.counters)) ->
      Alcotest.(check string) "net name" en gn;
      Alcotest.(check int) (en ^ " T0") ec.Psm_trace.Saif.t0 gc.Psm_trace.Saif.t0;
      Alcotest.(check int) (en ^ " T1") ec.Psm_trace.Saif.t1 gc.Psm_trace.Saif.t1;
      Alcotest.(check int) (en ^ " TC") ec.Psm_trace.Saif.tc gc.Psm_trace.Saif.tc)
    expected p.Psm_trace.Saif.nets

let test_saif_reader_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Psm_trace.Saif.parse "(NOTSAIF)");
       false
     with Psm_trace.Saif.Parse_error _ -> true);
  Alcotest.(check bool) "unbalanced" true
    (try
       ignore (Psm_trace.Saif.parse "(SAIFILE (INSTANCE top (NET");
       false
     with Psm_trace.Saif.Parse_error _ -> true)

let test_saif_t0_t1_sum () =
  let t = simple_trace () in
  let iface = FT.interface t in
  for signal = 0 to Interface.arity iface - 1 do
    let s = Interface.signal iface signal in
    for bit = 0 to s.Signal.width - 1 do
      let c = Psm_trace.Saif.bit_counters t ~signal ~bit in
      Alcotest.(check int) "T0+T1 = duration" (FT.length t)
        (c.Psm_trace.Saif.t0 + c.Psm_trace.Saif.t1)
    done
  done

(* ---------- trace stats ---------- *)

let test_per_signal_toggles () =
  let t = simple_trace () in
  let stats = Stats.per_signal t in
  let by_name name =
    Array.to_list stats
    |> List.find (fun (a : Stats.signal_activity) -> a.signal.Signal.name = name)
  in
  Alcotest.(check int) "en toggles" 2 (by_name "en").Stats.toggles;
  Alcotest.(check int) "data toggles" 5 (by_name "data").Stats.toggles;
  Alcotest.(check int) "q toggles" 5 (by_name "q").Stats.toggles

let test_distinct_samples () =
  let t = simple_trace () in
  Alcotest.(check int) "distinct" 5 (Stats.distinct_samples t);
  let constant =
    FT.of_samples (iface ()) (Array.make 10 (sample true 1 1))
  in
  Alcotest.(check int) "constant" 1 (Stats.distinct_samples constant)

let test_switching_density () =
  let t = simple_trace () in
  (* 12 toggles over 4 cycle-pairs x 17 bits. *)
  Alcotest.(check (float 1e-9)) "density" (12. /. (17. *. 4.)) (Stats.switching_density t)

(* ---------- properties ---------- *)

let arb_trace =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let* samples =
        list_size (return n)
          (map2
             (fun en data ->
               [| Bits.of_bool en;
                  Bits.of_int ~width:8 (data land 0xFF);
                  Bits.of_int ~width:8 ((data * 7) land 0xFF) |])
             bool (int_bound 255))
      in
      return (FT.of_samples (iface ()) (Array.of_list samples)))
  in
  QCheck.make gen

(* An interface wide enough to force multi-character VCD id codes
   (id_code rolls over past 94 variables). *)
let wide_iface =
  Interface.create
    (List.init 100 (fun i ->
         let w = 1 + (i mod 8) in
         let name = Printf.sprintf "s%d" i in
         if i mod 3 = 0 then Signal.output name w else Signal.input name w))

let arb_wide_trace =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* seeds = list_size (return n) (int_bound 0x3FFFFFF) in
      let samples =
        List.map
          (fun seed ->
            Array.init 100 (fun i ->
                let w = 1 + (i mod 8) in
                Bits.of_int ~width:w (seed * (i + 17) land ((1 lsl w) - 1))))
          seeds
      in
      return (FT.of_samples wide_iface (Array.of_list samples)))
  in
  QCheck.make gen

let is_ts l = String.length l > 1 && l.[0] = '#'

(* Multiply the writer's per-cycle timestamps by [stride]; with [drop],
   also erase timestamp lines whose change group is empty (except the
   final one), simulating a tool that only dumps at change points. *)
let scale_timestamps ?(drop = false) ~stride text =
  let lines = String.split_on_char '\n' text in
  let scaled =
    List.map
      (fun l ->
        if is_ts l then
          match int_of_string_opt (String.sub l 1 (String.length l - 1)) with
          | Some t -> Printf.sprintf "#%d" (t * stride)
          | None -> l
        else l)
      lines
  in
  let result =
    if not drop then scaled
    else begin
      let last_ts =
        List.fold_left
          (fun (i, last) l -> (i + 1, if is_ts l then i else last))
          (0, -1) scaled
        |> snd
      in
      let rec keep i = function
        | [] -> []
        | l :: rest ->
            let group_empty =
              match rest with next :: _ -> is_ts next || next = "" | [] -> true
            in
            if is_ts l && i <> last_ts && group_empty then keep (i + 1) rest
            else l :: keep (i + 1) rest
      in
      keep 0 scaled
    end
  in
  String.concat "\n" result

(* Replace 0-valued bits with x/z in the body of a writer-emitted VCD:
   under the coercing policies the parse result must be unchanged. *)
let inject_unknowns text =
  let lines = String.split_on_char '\n' text in
  let in_body = ref false in
  let injected = ref 0 in
  let out =
    List.map
      (fun l ->
        if not !in_body then begin
          if l = "$enddefinitions $end" then in_body := true;
          l
        end
        else if l = "" || l.[0] = '#' || l.[0] = '$' then l
        else
          match l.[0] with
          | '0' ->
              incr injected;
              "x" ^ String.sub l 1 (String.length l - 1)
          | 'b' -> (
              match String.index_opt l ' ' with
              | Some sp ->
                  String.mapi
                    (fun i c ->
                      if i > 0 && i < sp && c = '0' then begin
                        incr injected;
                        'z'
                      end
                      else c)
                    l
              | None -> l)
          | _ -> l)
      lines
  in
  (String.concat "\n" out, !injected)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:50 ~name arb f)

let properties =
  [ prop "vcd parser total on junk" (QCheck.make QCheck.Gen.(string_size ~gen:printable (int_range 0 400)))
      (fun junk ->
        (* Any input either parses or raises Parse_error — never crashes
           with an unexpected exception. *)
        try
          ignore (Vcd.parse junk);
          true
        with
        | Vcd.Parse_error _ -> true
        | _ -> false);
    prop "csv parser total on junk" (QCheck.make QCheck.Gen.(string_size ~gen:printable (int_range 0 400)))
      (fun junk ->
        try
          ignore (Csv.parse junk);
          true
        with
        | Csv.Parse_error _ -> true
        | _ -> false);
    prop "saif TC equals trace_stats toggles" arb_trace (fun t ->
        (* Summing SAIF per-bit toggle counts over a signal reproduces the
           Trace_stats per-signal toggle count. *)
        let iface = FT.interface t in
        let stats = Stats.per_signal t in
        Array.for_all
          (fun i ->
            let s = Interface.signal iface i in
            let saif_total = ref 0 in
            for bit = 0 to s.Signal.width - 1 do
              saif_total := !saif_total + (Psm_trace.Saif.bit_counters t ~signal:i ~bit).Psm_trace.Saif.tc
            done;
            !saif_total = stats.(i).Stats.toggles)
          (Array.init (Interface.arity iface) Fun.id));
    prop "vcd roundtrip" arb_trace (fun t ->
        FT.equal t (Vcd.parse (Vcd.to_string t)).Vcd.trace);
    prop "vcd roundtrip >94 signals with power" arb_wide_trace (fun t ->
        (* Multi-character id codes, an attached power trace, and the
           directions comment all survive the trip. *)
        let power =
          PT.of_array
            (Array.init (FT.length t) (fun i -> float_of_int (i mod 5) +. 0.25))
        in
        let parsed = Vcd.parse (Vcd.to_string ~power t) in
        FT.equal t parsed.Vcd.trace
        && Interface.equal wide_iface (FT.interface parsed.Vcd.trace)
        && (match parsed.Vcd.power with
           | Some p -> PT.to_array p = PT.to_array power
           | None -> false));
    prop "vcd gap expansion inverts change-only dumping"
      (QCheck.pair arb_trace (QCheck.make QCheck.Gen.(int_range 2 7)))
      (fun (t, stride) ->
        (* Scale to a sparse change-only dump; parsing with the matching
           period must reconstruct the original trace. *)
        let text = scale_timestamps ~drop:true ~stride (Vcd.to_string t) in
        FT.equal t (Vcd.parse ~period:stride text).Vcd.trace);
    prop "vcd stride inference from uniform timestamps"
      (QCheck.pair arb_trace (QCheck.make QCheck.Gen.(int_range 2 7)))
      (fun (t, stride) ->
        (* No period given: the GCD of the deltas recovers the stride. *)
        let text = scale_timestamps ~stride (Vcd.to_string t) in
        FT.equal t (Vcd.parse text).Vcd.trace);
    prop "vcd x/z on zero bits is identity under coercion" arb_trace (fun t ->
        let text, injected = inject_unknowns (Vcd.to_string t) in
        let counted = Vcd.parse text in
        let zeroed = Vcd.parse ~unknowns:Reader.Zero text in
        FT.equal t counted.Vcd.trace
        && FT.equal t zeroed.Vcd.trace
        && zeroed.Vcd.stats.Reader.unknowns_coerced = 0
        && (injected = 0 || counted.Vcd.stats.Reader.unknowns_coerced >= injected));
    prop "saif reader inverts writer counters" arb_trace (fun t ->
        let p = Psm_trace.Saif.parse (Psm_trace.Saif.to_string t) in
        p.Psm_trace.Saif.duration = Some (FT.length t)
        && List.for_all2
             (fun (_, (a : Psm_trace.Saif.counters)) b ->
               a.Psm_trace.Saif.t0 + a.Psm_trace.Saif.t1 = FT.length t && a = b)
             p.Psm_trace.Saif.nets
             (List.concat_map
                (fun signal ->
                  let s = Interface.signal (FT.interface t) signal in
                  List.init s.Signal.width (fun bit ->
                      Psm_trace.Saif.bit_counters t ~signal ~bit))
                (List.init (Interface.arity (FT.interface t)) Fun.id)));
    prop "saif parser total on junk"
      (QCheck.make QCheck.Gen.(string_size ~gen:printable (int_range 0 400)))
      (fun junk ->
        try
          ignore (Psm_trace.Saif.parse junk);
          true
        with
        | Psm_trace.Saif.Parse_error _ -> true
        | _ -> false);
    prop "csv roundtrip" arb_trace (fun t -> FT.equal t (fst (Csv.parse (Csv.to_string t))));
    prop "hamming series bounded by interface width" arb_trace (fun t ->
        Array.for_all (fun h -> h >= 0. && h <= 9.) (FT.input_hamming_series t));
    prop "sub+append identity" arb_trace (fun t ->
        let n = FT.length t in
        QCheck.assume (n >= 2);
        let k = n / 2 in
        FT.equal t
          (FT.append (FT.sub t ~start:0 ~stop:(k - 1)) (FT.sub t ~start:k ~stop:(n - 1)))) ]

(* ---------- differential fuzzing: span scanner vs. token oracle ---------- *)

type 'a outcome = Parsed of 'a | Failed of Reader.error | Escaped of string

let outcome f =
  match f () with
  | v -> Parsed v
  | exception Vcd.Parse_error e -> Failed e
  | exception e -> Escaped (Printexc.to_string e)

let same_parsed (a : Vcd.parsed) (b : Vcd.parsed) =
  let runs t =
    let r = FT.runs t in
    List.init (Psm_trace.Runs.count r) (Psm_trace.Runs.start r)
  in
  let bits p = Option.map (fun p -> Array.map Int64.bits_of_float (PT.to_array p)) p in
  FT.equal a.Vcd.trace b.Vcd.trace
  && runs a.Vcd.trace = runs b.Vcd.trace
  && bits a.Vcd.power = bits b.Vcd.power
  && a.Vcd.timescale = b.Vcd.timescale
  && a.Vcd.stats = b.Vcd.stats

(* Stream output: one (time, values, power) per distinct timestamp. *)
let same_stream (raw : Vcd_oracle.raw) (samples, (stats : Reader.stats)) =
  stats = raw.Vcd_oracle.stats
  && List.length samples = List.length raw.Vcd_oracle.samples
  && List.for_all2
       (fun (t, v, p) (t', v', p') ->
         t = t' && FT.same_sample v v' && Int64.bits_of_float p = Int64.bits_of_float p')
       samples raw.Vcd_oracle.samples

let describe = function
  | Parsed _ -> "parsed"
  | Failed e -> "Parse_error " ^ Reader.error_to_string e
  | Escaped s -> "escaped " ^ s

(* The readers agree with the oracle on the result or on the error
   record; where the oracle escapes (headers it never checked), each
   reader raises a Parse_error instead. *)
let agree ~what ~same oracle reader =
  let ok =
    match (oracle, reader) with
    | Escaped _, Failed _ -> true
    | Parsed a, Parsed b -> same a b
    | Failed a, Failed b -> a = b
    | _ -> false
  in
  if not ok then
    Alcotest.failf "%s: oracle %s, reader %s" what (describe oracle) (describe reader)

let fuzz_inputs () =
  let ip (create, stimulus) =
    let trace, power = Psm_ips.Capture.run (create ()) stimulus in
    Vcd.to_string ~power trace
  in
  let wide =
    FT.of_samples wide_iface
      (Array.init 6 (fun t ->
           Array.init 100 (fun i ->
               let w = 1 + (i mod 8) in
               Bits.of_int ~width:w ((t * (i + 3)) land ((1 lsl w) - 1)))))
  in
  let power = PT.of_array (Array.init 6 (fun i -> 0.5 *. float_of_int i)) in
  let module W = Psm_ips.Workloads in
  List.map ip
    [ (Psm_ips.Ram.create, W.ram_short ~length:120 ());
      (Psm_ips.Multsum.create, W.multsum_short ~length:120 ());
      (Psm_ips.Aes.create, W.aes_short ~length:120 ());
      (Psm_ips.Camellia.create, W.camellia_short ~length:120 ());
      (Psm_ips.Fifo.create, W.fifo_short ~length:120 ()) ]
  @ [ Vcd.to_string ~power wide;
      foreign_vcd;
      stream_vcd;
      vcd_1bit "#0\n1!\n#5\n0!\n#20\n1!\n";
      vcd_1bit "#0\n1!\n#0\n0!\n#1\n1!\n";
      vcd_4bit "#0\nbx1 !\n#1\nbz !\n#3\nb01 !\n";
      vcd_4bit "#0\n$comment note #9 $end\nb10 !\n#0x10\nb1 !\n#1_7\n" ]

(* Bytes a mutation writes: VCD syntax, digits, whitespace, any byte. *)
let palette = "01xXzZbBrR#$!\"%&' \n\t-+._e59"

let mutate rng inputs text =
  let n = String.length text in
  let pos () = Random.State.int rng (n + 1) in
  match Random.State.int rng 6 with
  | 0 | 1 ->
      let b = Bytes.of_string text in
      for _ = 0 to Random.State.int rng 3 do
        if n > 0 then
          Bytes.set b (Random.State.int rng n)
            (if Random.State.int rng 4 = 0 then Char.chr (Random.State.int rng 256)
             else palette.[Random.State.int rng (String.length palette)])
      done;
      Bytes.to_string b
  | 2 -> String.sub text 0 (pos ())
  | 3 ->
      let other = inputs.(Random.State.int rng (Array.length inputs)) in
      let j = Random.State.int rng (String.length other + 1) in
      String.sub text 0 (pos ()) ^ String.sub other j (String.length other - j)
  | 4 ->
      (* Duplicate, drop or swap lines: repeated or missing timestamps,
         time going backwards, aliased or undeclared variables. *)
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let k = Array.length lines in
      let i = Random.State.int rng k and j = Random.State.int rng k in
      String.concat "\n"
        (match Random.State.int rng 3 with
        | 0 -> List.concat (List.mapi (fun x l -> if x = i then [ l; l ] else [ l ]) (Array.to_list lines))
        | 1 -> List.filteri (fun x _ -> x <> i) (Array.to_list lines)
        | _ ->
            let t = lines.(i) in
            lines.(i) <- lines.(j);
            lines.(j) <- t;
            Array.to_list lines)
  | _ ->
      (* Give one $var another's identifier code or name: aliases,
         redeclarations and duplicate names. *)
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let vars =
        List.filter
          (fun i -> String.starts_with ~prefix:"$var " lines.(i))
          (List.init (Array.length lines) Fun.id)
      in
      (match vars with
      | [] -> ()
      | _ ->
          let nth () = List.nth vars (Random.State.int rng (List.length vars)) in
          let a = nth () and b = nth () in
          let fa = Array.of_list (String.split_on_char ' ' lines.(a)) in
          let fb = String.split_on_char ' ' lines.(b) in
          let field = if Random.State.bool rng then 3 else 4 in
          if Array.length fa > field && List.length fb > field then begin
            fa.(field) <- List.nth fb field;
            lines.(a) <- String.concat " " (Array.to_list fa)
          end);
      String.concat "\n" (Array.to_list lines)

let check_readers ~tmp ~what ?period ~unknowns text =
  let expected = outcome (fun () -> Vcd_oracle.parse ?period ~unknowns text) in
  let reader name f = agree ~what:(what ^ " " ^ name) ~same:same_parsed expected (outcome f) in
  reader "parse" (fun () -> Vcd.parse ?period ~unknowns text);
  Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
  reader "read over a 7-byte buffer" (fun () ->
      In_channel.with_open_bin tmp (fun ic ->
          Vcd.read ?period ~unknowns (Reader.of_channel ~buffer:7 ic)));
  let raw = outcome (fun () -> Vcd_oracle.raw ~unknowns text) in
  agree ~what:(what ^ " stream") ~same:same_stream raw
    (outcome (fun () ->
         let out = ref [] in
         let stats =
           Vcd.stream ~unknowns (Reader.of_string text) ~init:ignore
             ~sample:(fun ~time values ~power ->
               out := (time, Array.copy values, power) :: !out)
         in
         (List.rev !out, stats)))

let test_vcd_differential_fuzz () =
  let rng = Random.State.make [| 16 |] in
  let inputs = Array.of_list (fuzz_inputs ()) in
  (* Large enough that a channel read refills its buffer many times. *)
  let big = Vcd.to_string (big_trace 12_000) in
  let tmp = Filename.temp_file "fuzz" ".vcd" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
  let policies = [| Reader.Count; Reader.Zero; Reader.Reject |] in
  let run text k =
    let unknowns = policies.(k mod 3) in
    let period = if k mod 7 = 0 then Some (1 + (k mod 3)) else None in
    check_readers ~tmp ~what:(Printf.sprintf "mutant %d" k) ?period ~unknowns text
  in
  Array.iteri (fun k text -> run text k) inputs;
  for k = 0 to 799 do
    let text = inputs.(k mod Array.length inputs) in
    run (mutate rng inputs text) k
  done;
  run big 0;
  for k = 0 to 23 do
    run (mutate rng [| big |] big) k
  done;
  run (two_errors_vcd ()) 1;
  run (decoy_comment_vcd ()) 1

let suite =
  ( "trace",
    [ Alcotest.test_case "signal validation" `Quick test_signal_validation;
      Alcotest.test_case "interface lookup" `Quick test_interface_lookup;
      Alcotest.test_case "interface widths" `Quick test_interface_widths;
      Alcotest.test_case "interface duplicates" `Quick test_interface_duplicate;
      Alcotest.test_case "trace accessors" `Quick test_trace_accessors;
      Alcotest.test_case "builder" `Quick test_builder_matches_of_samples;
      Alcotest.test_case "builder validates" `Quick test_builder_validates;
      Alcotest.test_case "sub/append" `Quick test_sub_append;
      Alcotest.test_case "input hamming series" `Quick test_input_hamming;
      Alcotest.test_case "wide values" `Quick test_wide_value_trace;
      Alcotest.test_case "power attributes" `Quick test_power_attributes;
      Alcotest.test_case "power rejects negative" `Quick test_power_rejects_negative;
      Alcotest.test_case "power total/mean" `Quick test_power_total_mean;
      Alcotest.test_case "MRE" `Quick test_mre;
      Alcotest.test_case "MRE zero reference" `Quick test_mre_zero_reference;
      Alcotest.test_case "vcd roundtrip" `Quick test_vcd_roundtrip;
      Alcotest.test_case "vcd without power" `Quick test_vcd_no_power;
      Alcotest.test_case "vcd directions" `Quick test_vcd_preserves_directions;
      Alcotest.test_case "vcd foreign input" `Quick test_vcd_foreign_input;
      Alcotest.test_case "vcd rejects garbage" `Quick test_vcd_rejects_garbage;
      Alcotest.test_case "vcd file io" `Quick test_vcd_file_io;
      Alcotest.test_case "vcd timestamp gaps (gcd)" `Quick test_vcd_gap_gcd;
      Alcotest.test_case "vcd explicit period" `Quick test_vcd_explicit_period;
      Alcotest.test_case "vcd backwards time" `Quick test_vcd_backwards_time;
      Alcotest.test_case "vcd equal timestamps" `Quick test_vcd_equal_timestamps_merge;
      Alcotest.test_case "vcd x/z left-extension" `Quick test_vcd_xz_left_extension;
      Alcotest.test_case "vcd unknown policies" `Quick test_vcd_unknown_policies;
      Alcotest.test_case "vcd trailing vector token" `Quick
        test_vcd_trailing_vector_token;
      Alcotest.test_case "vcd oversized vector" `Quick test_vcd_oversized_vector;
      Alcotest.test_case "vcd error position" `Quick test_vcd_error_position;
      Alcotest.test_case "vcd stream" `Quick test_vcd_stream;
      Alcotest.test_case "vcd/csv reject bad power" `Quick test_vcd_rejects_bad_power;
      Alcotest.test_case "vcd duplicate signal name" `Quick test_vcd_duplicate_name;
      Alcotest.test_case "vcd identifier alias" `Quick test_vcd_alias;
      Alcotest.test_case "vcd power variable" `Quick test_vcd_power_variable;
      Alcotest.test_case "vcd width limit" `Quick test_vcd_max_width;
      Alcotest.test_case "vcd gap expansion bound" `Quick test_vcd_gap_bound;
      Alcotest.test_case "vcd readers = token oracle (fuzz)" `Quick
        test_vcd_differential_fuzz;
      Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
      Alcotest.test_case "csv without power" `Quick test_csv_no_power;
      Alcotest.test_case "csv bad header" `Quick test_csv_rejects_bad_header;
      Alcotest.test_case "csv error position" `Quick test_csv_error_position;
      Alcotest.test_case "saif counters" `Quick test_saif_counters;
      Alcotest.test_case "saif document" `Quick test_saif_document;
      Alcotest.test_case "saif reader roundtrip" `Quick test_saif_reader_roundtrip;
      Alcotest.test_case "saif reader rejects garbage" `Quick
        test_saif_reader_rejects_garbage;
      Alcotest.test_case "saif t0+t1" `Quick test_saif_t0_t1_sum;
      Alcotest.test_case "per-signal toggles" `Quick test_per_signal_toggles;
      Alcotest.test_case "distinct samples" `Quick test_distinct_samples;
      Alcotest.test_case "switching density" `Quick test_switching_density ]
    @ properties )
