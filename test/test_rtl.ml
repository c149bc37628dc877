(* Tests for Psm_rtl: netlist construction, combinational builders, the
   cycle simulator with toggle counting, and the power model. *)

module Bits = Psm_bits.Bits
module Netlist = Psm_rtl.Netlist
module Comb = Psm_rtl.Comb
module Sim = Psm_rtl.Sim
module Power = Psm_rtl.Power_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- netlist basics ---------- *)

let test_counts () =
  let nl = Netlist.create "t" in
  let a = Netlist.input nl "a" 2 in
  let x = Netlist.gate nl Netlist.And [| a.(0); a.(1) |] in
  let q = Netlist.dff nl x in
  Netlist.output nl "q" [| q |];
  check_int "gates" 1 (Netlist.gate_count nl);
  check_int "memory" 1 (Netlist.memory_elements nl);
  Netlist.validate nl

let test_validate_undriven () =
  let nl = Netlist.create "t" in
  let _ = Netlist.input nl "a" 1 in
  let dangling = Netlist.fresh nl in
  ignore dangling;
  Alcotest.(check bool) "undriven rejected" true
    (try
       Netlist.validate nl;
       false
     with Invalid_argument _ -> true)

let test_validate_unconnected_loop () =
  let nl = Netlist.create "t" in
  let _q, _connect = Netlist.dff_loop nl () in
  Alcotest.(check bool) "unconnected dff rejected" true
    (try
       ignore (Netlist.dffs nl);
       false
     with Invalid_argument _ -> true)

let test_const_dedup () =
  let nl = Netlist.create "t" in
  check_int "const false dedup" (Netlist.const nl false) (Netlist.const nl false);
  check_bool "two constants differ" true (Netlist.const nl false <> Netlist.const nl true)

let test_interface_of_netlist () =
  let nl = Netlist.create "t" in
  let a = Netlist.input nl "a" 3 in
  Netlist.output nl "y" [| a.(0) |];
  let iface = Netlist.interface nl in
  check_int "pi" 3 (Psm_trace.Interface.total_input_width iface);
  check_int "po" 1 (Psm_trace.Interface.total_output_width iface)

(* ---------- simulation helpers ---------- *)

let run_comb build inputs =
  (* Build a netlist with the given input widths, apply [build] to get the
     output nets, simulate one cycle, return outputs. *)
  let nl = Netlist.create "comb" in
  let nets = List.map (fun (n, w) -> (n, Netlist.input nl n w)) inputs in
  let outs = build nl (List.map snd nets) in
  Netlist.output nl "y" outs;
  let sim = Sim.create nl in
  fun values ->
    let ins = List.map2 (fun (n, _) v -> (n, v)) inputs values in
    List.assoc "y" (Sim.step sim ins)

let test_adder_exhaustive () =
  let add =
    run_comb
      (fun nl -> function
        | [ a; b ] -> fst (Comb.adder nl a b)
        | _ -> assert false)
      [ ("a", 4); ("b", 4) ]
  in
  for x = 0 to 15 do
    for y = 0 to 15 do
      check_int
        (Printf.sprintf "%d+%d" x y)
        ((x + y) land 0xF)
        (Bits.to_int (add [ Bits.of_int ~width:4 x; Bits.of_int ~width:4 y ]))
    done
  done

let test_subtractor () =
  let sub =
    run_comb
      (fun nl -> function
        | [ a; b ] -> fst (Comb.subtractor nl a b)
        | _ -> assert false)
      [ ("a", 8); ("b", 8) ]
  in
  List.iter
    (fun (x, y) ->
      check_int
        (Printf.sprintf "%d-%d" x y)
        ((x - y) land 0xFF)
        (Bits.to_int (sub [ Bits.of_int ~width:8 x; Bits.of_int ~width:8 y ])))
    [ (0, 0); (10, 3); (3, 10); (255, 255); (0, 1); (128, 64) ]

let test_multiplier () =
  let mul =
    run_comb
      (fun nl -> function
        | [ a; b ] -> Comb.multiplier nl a b
        | _ -> assert false)
      [ ("a", 6); ("b", 6) ]
  in
  for x = 0 to 63 do
    List.iter
      (fun y ->
        check_int
          (Printf.sprintf "%d*%d" x y)
          (x * y)
          (Bits.to_int (mul [ Bits.of_int ~width:6 x; Bits.of_int ~width:6 y ])))
      [ 0; 1; 5; 33; 63 ]
  done

let test_mux_tree () =
  let pick =
    run_comb
      (fun nl -> function
        | [ sel; a; b; c; d ] -> Comb.mux_tree nl ~sel [| a; b; c; d |]
        | _ -> assert false)
      [ ("sel", 2); ("a", 4); ("b", 4); ("c", 4); ("d", 4) ]
  in
  let ways = [ 0xA; 0xB; 0xC; 0xD ] in
  List.iteri
    (fun idx expect ->
      let inputs =
        Bits.of_int ~width:2 idx :: List.map (Bits.of_int ~width:4) ways
      in
      check_int (Printf.sprintf "way %d" idx) expect (Bits.to_int (pick inputs)))
    ways

let test_decoder () =
  let dec =
    run_comb
      (fun nl -> function
        | [ a ] ->
            let outs = Comb.decoder nl a in
            outs
        | _ -> assert false)
      [ ("a", 3) ]
  in
  for v = 0 to 7 do
    let out = dec [ Bits.of_int ~width:3 v ] in
    check_int (Printf.sprintf "one-hot %d" v) (1 lsl v) (Bits.to_int out)
  done

let test_comparators () =
  let eq =
    run_comb
      (fun nl -> function
        | [ a; b ] -> [| Comb.eq_v nl a b |]
        | _ -> assert false)
      [ ("a", 5); ("b", 5) ]
  in
  check_int "equal" 1
    (Bits.to_int (eq [ Bits.of_int ~width:5 17; Bits.of_int ~width:5 17 ]));
  check_int "unequal" 0
    (Bits.to_int (eq [ Bits.of_int ~width:5 17; Bits.of_int ~width:5 18 ]))

(* ---------- sequential simulation ---------- *)

let test_counter () =
  (* A 4-bit counter built from the adder and a dff loop. *)
  let nl = Netlist.create "counter" in
  let en = Netlist.input nl "en" 1 in
  let q, connect = Netlist.dff_loop_vector nl 4 in
  let one = Comb.const_vector nl (Bits.of_int ~width:4 1) in
  let incremented, _ = Comb.adder nl q one in
  connect (Comb.mux2 nl ~sel:en.(0) q incremented);
  Netlist.output nl "count" q;
  let sim = Sim.create nl in
  let read enabled = List.assoc "count" (Sim.step sim [ ("en", Bits.of_bool enabled) ]) in
  check_int "starts at 0" 0 (Bits.to_int (read true));
  check_int "then 1" 1 (Bits.to_int (read true));
  check_int "then 2" 2 (Bits.to_int (read true));
  check_int "hold" 3 (Bits.to_int (read false));
  check_int "still hold" 3 (Bits.to_int (read false));
  check_int "resumes" 3 (Bits.to_int (read true));
  check_int "counts again" 4 (Bits.to_int (read true))

let test_counter_wraps_and_reset () =
  let nl = Netlist.create "c2" in
  let _unused = Netlist.input nl "en" 1 in
  let q, connect = Netlist.dff_loop_vector nl 2 in
  let one = Comb.const_vector nl (Bits.of_int ~width:2 1) in
  let inc, _ = Comb.adder nl q one in
  connect inc;
  Netlist.output nl "c" q;
  let sim = Sim.create nl in
  let step () = Bits.to_int (List.assoc "c" (Sim.step sim [ ("en", Bits.of_bool true) ])) in
  check_int "0" 0 (step ());
  check_int "1" 1 (step ());
  check_int "2" 2 (step ());
  check_int "3" 3 (step ());
  check_int "wraps" 0 (step ());
  Sim.reset sim;
  check_int "reset" 0 (step ());
  check_int "cycle count" 1 (Sim.cycle sim)

let test_toggle_counting () =
  (* A single inverter driven by an input: toggles are deterministic. *)
  let nl = Netlist.create "inv" in
  let a = Netlist.input nl "a" 1 in
  let y = Netlist.gate nl Netlist.Not [| a.(0) |] in
  Netlist.output nl "y" [| y |];
  let sim = Sim.create nl in
  let step v = ignore (Sim.step sim [ ("a", Bits.of_bool v) ]) in
  step false;
  (* First cycle: y goes 0 -> 1 (prev state was all-false). *)
  check_int "first cycle" 1 (Sim.last_toggles sim);
  step false;
  check_int "stable" 0 (Sim.last_toggles sim);
  step true;
  (* Both a and y toggle. *)
  check_int "both toggle" 2 (Sim.last_toggles sim);
  check_int "total" 3 (Sim.total_toggles sim)

let test_combinational_cycle_detected () =
  let nl = Netlist.create "loop" in
  let a = Netlist.input nl "a" 1 in
  (* Two NANDs cross-coupled combinationally (no DFF). *)
  let n1 = Netlist.fresh nl in
  ignore n1;
  (* Build an actual loop: x = And(a, y); y = Buf x is impossible through
     the builder (gate outputs are fresh); an SR-latch-like loop needs
     dff_loop misused: connect d to a gate of its own q is legal, but a
     *combinational* loop cannot be expressed. Assert the builder prevents
     it by construction: every gate's inputs must already exist. *)
  Alcotest.(check bool) "builder prevents cycles" true
    (try
       let x = Netlist.gate nl Netlist.And [| a.(0); Netlist.net_count nl + 5 |] in
       ignore x;
       false
     with Invalid_argument _ -> true)

let test_sim_input_validation () =
  let nl = Netlist.create "v" in
  let _a = Netlist.input nl "a" 2 in
  let c = Netlist.const nl true in
  Netlist.output nl "y" [| c |];
  let sim = Sim.create nl in
  Alcotest.(check bool) "missing input" true
    (try
       ignore (Sim.step sim []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong width" true
    (try
       ignore (Sim.step sim [ ("a", Bits.zero 3) ]);
       false
     with Invalid_argument _ -> true)

(* ---------- Verilog export ---------- *)

let test_verilog_export_shape () =
  let nl = Netlist.create "demo" in
  let a = Netlist.input nl "a" 2 in
  let x = Netlist.gate nl Netlist.And [| a.(0); a.(1) |] in
  let q = Netlist.dff nl ~init:true x in
  Netlist.output nl "y" [| q |];
  let v = Psm_rtl.Verilog.to_string nl in
  let contains needle =
    let n = String.length needle and h = String.length v in
    let rec go i = i + n <= h && (String.sub v i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check_bool needle true (contains needle))
    [ "module demo(clk, a, y);"; "input [1:0] a;"; "output [0:0] y;";
      "always @(posedge clk)"; "n_3 = 1'b1;" (* dff init *);
      "assign n_2 = n_0 & n_1;"; "n_3 <= n_2;"; "endmodule" ];
  (* Balanced begin/end pairs. *)
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length v then acc
      else go (i + 1) (if String.sub v i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  check_int "begin/end balance" (count "begin") (count "  end")

let test_verilog_export_full_ips () =
  (* All four structural netlists export without raising and mention
     their ports. *)
  List.iter
    (fun name ->
      match Psm_ips.Structural.netlist_for name with
      | None -> Alcotest.fail name
      | Some build ->
          let v = Psm_rtl.Verilog.to_string (build ()) in
          check_bool (name ^ " non-trivial") true (String.length v > 10_000))
    [ "RAM"; "MultSum" ]

(* ---------- netlist statistics ---------- *)

let test_stats_known_circuit () =
  (* Two gates in a chain: depth 2; one in parallel: still depth 2. *)
  let nl = Netlist.create "s" in
  let a = Netlist.input nl "a" 2 in
  let x = Netlist.gate nl Netlist.And [| a.(0); a.(1) |] in
  let y = Netlist.gate nl Netlist.Not [| x |] in
  let z = Netlist.gate nl Netlist.Or [| a.(0); a.(1) |] in
  Netlist.output nl "y" [| y |];
  Netlist.output nl "z" [| z |];
  let stats = Psm_rtl.Netlist_stats.analyze nl in
  check_int "gates" 3 stats.Psm_rtl.Netlist_stats.gates_total;
  check_int "depth" 2 stats.Psm_rtl.Netlist_stats.logic_depth;
  check_int "max fanout (a bits feed 2 gates)" 2 stats.Psm_rtl.Netlist_stats.max_fanout;
  let count op =
    Option.value ~default:0
      (List.assoc_opt op stats.Psm_rtl.Netlist_stats.gates_by_op)
  in
  check_int "and" 1 (count Netlist.And);
  check_int "not" 1 (count Netlist.Not);
  check_int "or" 1 (count Netlist.Or)

let test_stats_adder_depth_linear () =
  (* Ripple-carry: depth grows linearly with width. *)
  let depth w =
    let nl = Netlist.create "add" in
    let a = Netlist.input nl "a" w in
    let b = Netlist.input nl "b" w in
    let sum, _ = Comb.adder nl a b in
    Netlist.output nl "s" sum;
    (Psm_rtl.Netlist_stats.analyze nl).Psm_rtl.Netlist_stats.logic_depth
  in
  check_bool "wider is deeper" true (depth 16 > depth 4);
  check_bool "roughly linear" true (depth 16 < 4 * depth 4 + 8)

(* ---------- power model ---------- *)

let test_power_formula () =
  let cfg = { Power.vdd = 1.2; freq_hz = 50e6; cap_per_toggle = 2e-15 } in
  (* 0.5 * 1.44 * 50e6 * 2e-15 * 10 *)
  Alcotest.(check (float 1e-18)) "energy" (0.5 *. 1.44 *. 50e6 *. 2e-15 *. 10.)
    (Power.energy_of_activity cfg 10)

let test_power_linear_in_activity () =
  let cfg = Power.default in
  let e1 = Power.energy_of_activity cfg 1 in
  Alcotest.(check (float 1e-20)) "linear" (e1 *. 7.) (Power.energy_of_activity cfg 7)

let test_power_trace_of_activity () =
  let cfg = Power.default in
  let trace = Power.trace_of_activity cfg [| 0; 5; 10 |] in
  Alcotest.(check int) "length" 3 (Psm_trace.Power_trace.length trace);
  Alcotest.(check (float 1e-24)) "zero" 0. (Psm_trace.Power_trace.get trace 0)

let test_power_rejects_bad_config () =
  Alcotest.(check bool) "vdd <= 0" true
    (try
       ignore (Power.energy_of_activity { Power.default with Power.vdd = 0. } 1);
       false
     with Invalid_argument _ -> true)

(* ---------- properties ---------- *)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:60 ~name arb f)

(* Random feed-forward circuit: compare the levelized simulator against a
   direct recursive evaluation of the same DAG. *)
let random_circuit_prop =
  let gen =
    QCheck.Gen.(
      let* n_gates = int_range 1 60 in
      let* choices = list_size (return n_gates) (pair (int_bound 5) (pair nat nat)) in
      let* inputs = list_size (return 4) bool in
      return (choices, inputs))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"random circuits match direct evaluation"
       (QCheck.make gen)
       (fun (choices, input_values) ->
         let nl = Netlist.create "random" in
         let input_nets = Netlist.input nl "in" 4 in
         (* Build gates over already-existing nets only: feed-forward by
            construction. *)
         let nets = ref (Array.to_list input_nets) in
         let semantics = Hashtbl.create 64 in
         Array.iteri
           (fun i _net ->
             Hashtbl.replace semantics input_nets.(i) (fun () -> List.nth input_values i))
           input_nets;
         List.iter
           (fun (op_idx, (a_idx, b_idx)) ->
             let existing = Array.of_list !nets in
             let a = existing.(a_idx mod Array.length existing) in
             let b = existing.(b_idx mod Array.length existing) in
             let op, eval =
               match op_idx with
               | 0 -> (Netlist.And, fun x y -> x && y)
               | 1 -> (Netlist.Or, fun x y -> x || y)
               | 2 -> (Netlist.Xor, fun x y -> x <> y)
               | 3 -> (Netlist.Nand, fun x y -> not (x && y))
               | 4 -> (Netlist.Nor, fun x y -> not (x || y))
               | _ -> (Netlist.Xor, fun x y -> x <> y)
             in
             let out = Netlist.gate nl op [| a; b |] in
             let fa = Hashtbl.find semantics a and fb = Hashtbl.find semantics b in
             Hashtbl.replace semantics out (fun () -> eval (fa ()) (fb ()));
             nets := out :: !nets)
           choices;
         let outputs = Array.of_list (List.rev !nets) in
         Netlist.output nl "out" outputs;
         let sim = Sim.create nl in
         let in_bits =
           Bits.init ~width:4 (fun i -> List.nth input_values i)
         in
         let result = List.assoc "out" (Sim.step sim [ ("in", in_bits) ]) in
         Array.for_all
              (fun i -> Bits.get result i = (Hashtbl.find semantics outputs.(i)) ())
              (Array.init (Array.length outputs) Fun.id)))

let properties =
  [ random_circuit_prop;
    prop "adder matches integer addition"
      QCheck.(pair (int_bound 65535) (int_bound 65535))
      (fun (x, y) ->
        let add =
          run_comb
            (fun nl -> function
              | [ a; b ] -> fst (Comb.adder nl a b)
              | _ -> assert false)
            [ ("a", 16); ("b", 16) ]
        in
        Bits.to_int (add [ Bits.of_int ~width:16 x; Bits.of_int ~width:16 y ])
        = (x + y) land 0xFFFF);
    prop "multiplier matches integer product"
      QCheck.(pair (int_bound 255) (int_bound 255))
      (fun (x, y) ->
        let mul =
          run_comb
            (fun nl -> function
              | [ a; b ] -> Comb.multiplier nl a b
              | _ -> assert false)
            [ ("a", 8); ("b", 8) ]
        in
        Bits.to_int (mul [ Bits.of_int ~width:8 x; Bits.of_int ~width:8 y ]) = x * y) ]

let suite =
  ( "rtl",
    [ Alcotest.test_case "netlist counts" `Quick test_counts;
      Alcotest.test_case "undriven net rejected" `Quick test_validate_undriven;
      Alcotest.test_case "unconnected dff_loop rejected" `Quick test_validate_unconnected_loop;
      Alcotest.test_case "const dedup" `Quick test_const_dedup;
      Alcotest.test_case "netlist interface" `Quick test_interface_of_netlist;
      Alcotest.test_case "adder exhaustive 4-bit" `Quick test_adder_exhaustive;
      Alcotest.test_case "subtractor" `Quick test_subtractor;
      Alcotest.test_case "multiplier" `Quick test_multiplier;
      Alcotest.test_case "mux tree" `Quick test_mux_tree;
      Alcotest.test_case "decoder one-hot" `Quick test_decoder;
      Alcotest.test_case "comparators" `Quick test_comparators;
      Alcotest.test_case "enabled counter" `Quick test_counter;
      Alcotest.test_case "counter wrap/reset" `Quick test_counter_wraps_and_reset;
      Alcotest.test_case "toggle counting" `Quick test_toggle_counting;
      Alcotest.test_case "cycles unconstructible" `Quick test_combinational_cycle_detected;
      Alcotest.test_case "sim input validation" `Quick test_sim_input_validation;
      Alcotest.test_case "verilog export" `Quick test_verilog_export_shape;
      Alcotest.test_case "verilog full IPs" `Quick test_verilog_export_full_ips;
      Alcotest.test_case "stats known circuit" `Quick test_stats_known_circuit;
      Alcotest.test_case "stats adder depth" `Quick test_stats_adder_depth_linear;
      Alcotest.test_case "power formula" `Quick test_power_formula;
      Alcotest.test_case "power linearity" `Quick test_power_linear_in_activity;
      Alcotest.test_case "power trace" `Quick test_power_trace_of_activity;
      Alcotest.test_case "power config validation" `Quick test_power_rejects_bad_config ]
    @ properties )
