(* Tests for the gate-level structural IP netlists: cycle-exact
   equivalence against the behavioural models and structural sanity. *)

module Bits = Psm_bits.Bits
module Ip = Psm_ips.Ip
module Netlist = Psm_rtl.Netlist
module Workloads = Psm_ips.Workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lockstep ?(cycles = 250) name behavioural structural stim =
  behavioural.Ip.reset ();
  structural.Ip.reset ();
  Array.iteri
    (fun t pis ->
      if t < cycles then begin
        let oa = fst (behavioural.Ip.step pis) in
        let ob = fst (structural.Ip.step pis) in
        Array.iteri
          (fun k va ->
            Alcotest.(check string)
              (Printf.sprintf "%s output %d cycle %d" name k t)
              (Bits.to_hex_string va)
              (Bits.to_hex_string ob.(k)))
          oa
      end)
    stim

let test_ram_gates_equivalence () =
  lockstep "RAM" (Psm_ips.Ram.create ()) (Psm_ips.Ram_gates.create ())
    (Workloads.ram_short ~length:250 ())

let test_aes_gates_equivalence () =
  lockstep "AES" (Psm_ips.Aes.create ()) (Psm_ips.Aes_gates.create ())
    (Workloads.aes_short ~length:250 ())

let test_camellia_gates_equivalence () =
  lockstep "Camellia" (Psm_ips.Camellia.create ()) (Psm_ips.Camellia_gates.create ())
    (Workloads.camellia_short ~length:250 ())

let test_gates_survive_reset_mid_block () =
  (* Drive rst in the middle of an AES block on both models. *)
  let a = Psm_ips.Aes.create () and b = Psm_ips.Aes_gates.create () in
  let key = Bits.of_hex_string ~width:128 "000102030405060708090a0b0c0d0e0f" in
  let data = Bits.of_hex_string ~width:128 "00112233445566778899aabbccddeeff" in
  let op ~start ~rst =
    [| key; data; Bits.of_bool start; Bits.of_bool false; Bits.of_bool true;
       Bits.of_bool rst |]
  in
  let stim =
    Array.concat
      [ [| op ~start:true ~rst:false |];
        Array.make 4 (op ~start:false ~rst:false);
        [| op ~start:false ~rst:true |];
        [| op ~start:true ~rst:false |];
        Array.make 12 (op ~start:false ~rst:false) ]
  in
  lockstep "AES+rst" a b stim

let test_structural_registry () =
  Alcotest.(check (list string)) "all four IPs" [ "RAM"; "MultSum"; "AES"; "Camellia" ]
    Psm_ips.Structural.available;
  List.iter
    (fun name ->
      check_bool name true (Psm_ips.Structural.netlist_for name <> None);
      check_bool name true (Psm_ips.Structural.create_for name <> None))
    Psm_ips.Structural.available

let test_netlists_validate () =
  List.iter
    (fun name ->
      match Psm_ips.Structural.netlist_for name with
      | None -> Alcotest.fail name
      | Some build ->
          let nl = build () in
          Netlist.validate nl;
          check_bool (name ^ " has gates") true (Netlist.gate_count nl > 1000);
          check_bool (name ^ " has state") true (Netlist.memory_elements nl > 50))
    Psm_ips.Structural.available

let test_gate_counts_ordering () =
  (* Sanity on relative complexity: MultSum < RAM < Camellia < AES. *)
  let gates name =
    match Psm_ips.Structural.netlist_for name with
    | Some build -> Netlist.gate_count (build ())
    | None -> 0
  in
  let multsum = gates "MultSum" and ram = gates "RAM" in
  let aes = gates "AES" and camellia = gates "Camellia" in
  check_bool "MultSum smallest" true (multsum < ram);
  check_bool "ciphers biggest" true (ram < camellia && camellia < aes)

let test_sbox_lut_gadget () =
  (* The LUT mux tree implements an arbitrary table exactly. *)
  let nl = Netlist.create "lut" in
  let input = Netlist.input nl "x" 8 in
  let table = Array.init 256 (fun i -> (i * 7) lxor 0x5A land 0xFF) in
  let out = Psm_ips.Gates_util.sbox_lut nl table input in
  Netlist.output nl "y" out;
  let sim = Psm_rtl.Sim.create nl in
  for v = 0 to 255 do
    let outs = Psm_rtl.Sim.step sim [ ("x", Bits.of_int ~width:8 v) ] in
    check_int (Printf.sprintf "lut[%d]" v) table.(v) (Bits.to_int (List.assoc "y" outs))
  done

let test_xtime_gadget () =
  let nl = Netlist.create "xtime" in
  let input = Netlist.input nl "x" 8 in
  Netlist.output nl "y" (Psm_ips.Gates_util.xtime nl input);
  let sim = Psm_rtl.Sim.create nl in
  for v = 0 to 255 do
    let expect =
      let s = v lsl 1 in
      (if s land 0x100 <> 0 then s lxor 0x11B else s) land 0xFF
    in
    let outs = Psm_rtl.Sim.step sim [ ("x", Bits.of_int ~width:8 v) ] in
    check_int (Printf.sprintf "xtime %d" v) expect (Bits.to_int (List.assoc "y" outs))
  done

let test_gf_mul_const_gadget () =
  let nl = Netlist.create "gfmul" in
  let input = Netlist.input nl "x" 8 in
  let outputs =
    List.map
      (fun k -> (k, Psm_ips.Gates_util.gf_mul_const nl k input))
      [ 2; 3; 9; 11; 13; 14 ]
  in
  List.iter (fun (k, nets) -> Netlist.output nl (Printf.sprintf "y%d" k) nets) outputs;
  let sim = Psm_rtl.Sim.create nl in
  (* Reference GF multiply (same as Aes_core's internals). *)
  let gf_mul a b =
    let rec go acc a b =
      if b = 0 then acc
      else
        go (if b land 1 = 1 then acc lxor a else acc)
          (let a = a lsl 1 in
           if a land 0x100 <> 0 then a lxor 0x11B else a)
          (b lsr 1)
    in
    go 0 a b
  in
  List.iter
    (fun v ->
      let outs = Psm_rtl.Sim.step sim [ ("x", Bits.of_int ~width:8 v) ] in
      List.iter
        (fun (k, _) ->
          check_int
            (Printf.sprintf "%d*%d" k v)
            (gf_mul v k)
            (Bits.to_int (List.assoc (Printf.sprintf "y%d" k) outs)))
        outputs)
    [ 0; 1; 0x53; 0x80; 0xFF; 0xC3 ]

(* ---------- gadget properties ---------- *)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:100 ~name arb f)

let gadget_properties =
  [ prop "rotl_nets matches Bits.rotate_left"
      QCheck.(pair (int_bound 255) (int_bound 23))
      (fun (v, n) ->
        (* Build an identity netlist, rotate its input nets as wiring, and
           compare with the value-level rotation. *)
        let nl = Netlist.create "rot" in
        let input = Netlist.input nl "x" 8 in
        Netlist.output nl "y" (Psm_ips.Gates_util.rotl_nets input n);
        let sim = Psm_rtl.Sim.create nl in
        let outs = Psm_rtl.Sim.step sim [ ("x", Bits.of_int ~width:8 v) ] in
        Bits.equal (List.assoc "y" outs) (Bits.rotate_left (Bits.of_int ~width:8 v) n));
    prop "byte_const materializes any byte" (QCheck.int_bound 255) (fun v ->
        let nl = Netlist.create "const" in
        let _ = Netlist.input nl "dummy" 1 in
        Netlist.output nl "y" (Psm_ips.Gates_util.byte_const nl v);
        let sim = Psm_rtl.Sim.create nl in
        let outs = Psm_rtl.Sim.step sim [ ("dummy", Bits.of_bool false) ] in
        Bits.to_int (List.assoc "y" outs) = v) ]

let suite =
  ( "gates",
    [ Alcotest.test_case "RAM gates == behavioural" `Slow test_ram_gates_equivalence;
      Alcotest.test_case "AES gates == behavioural" `Slow test_aes_gates_equivalence;
      Alcotest.test_case "Camellia gates == behavioural" `Slow test_camellia_gates_equivalence;
      Alcotest.test_case "reset mid-block" `Slow test_gates_survive_reset_mid_block;
      Alcotest.test_case "structural registry" `Quick test_structural_registry;
      Alcotest.test_case "netlists validate" `Quick test_netlists_validate;
      Alcotest.test_case "gate count ordering" `Quick test_gate_counts_ordering;
      Alcotest.test_case "sbox LUT gadget" `Quick test_sbox_lut_gadget;
      Alcotest.test_case "xtime gadget" `Quick test_xtime_gadget;
      Alcotest.test_case "gf_mul_const gadget" `Quick test_gf_mul_const_gadget ]
    @ gadget_properties )
