module Bits = Psm_bits.Bits
module Interface = Psm_trace.Interface
module Signal_decl = Psm_trace.Signal
module Ip = Psm_ips.Ip
module Multi_sim = Psm_hmm.Multi_sim
module Sample_tracker = Psm_mining.Sample_tracker
module Power_model = Psm_rtl.Power_model

type t = {
  pis : Bits.t Kernel.Signal.t list;
  pos : Bits.t Kernel.Signal.t list;
  power : float Kernel.Signal.t;
  mutable cycle : int;
  est : float array;
  refs : float array;
}

let build kernel ~clock ~ip ~hmm ~stimulus =
  ip.Ip.reset ();
  let iface = ip.Ip.interface in
  let mk_sig (s : Signal_decl.t) =
    Kernel.Signal.create kernel ~equal:Bits.equal ~name:s.Signal_decl.name
      (Bits.zero s.Signal_decl.width)
  in
  let pis = List.map (fun (_, s) -> mk_sig s) (Interface.inputs iface) in
  let pos = List.map (fun (_, s) -> mk_sig s) (Interface.outputs iface) in
  let power = Kernel.Signal.create kernel ~name:"psm_power" 0. in
  (* Analysis port: fires every cycle even when values repeat. *)
  let analysis =
    Kernel.Signal.create kernel ~equal:(fun _ _ -> false) ~name:"analysis" [||]
  in
  let total = Array.length stimulus in
  let t =
    { pis; pos; power; cycle = 0; est = Array.make total 0.; refs = Array.make total 0. }
  in
  (* Testbench: drive PIs on the falling edge for the next rising edge. *)
  let drive_cycle = ref 0 in
  Kernel.Signal.on_change (Kernel.Clock.signal clock) (fun () ->
      if not (Kernel.Signal.read (Kernel.Clock.signal clock)) then
        if !drive_cycle < total then begin
          List.iteri
            (fun i s -> Kernel.Signal.write s stimulus.(!drive_cycle).(i))
            pis;
          incr drive_cycle
        end);
  (* Drive the first cycle's inputs before the first rising edge. *)
  List.iteri (fun i s -> Kernel.Signal.write s stimulus.(0).(i)) pis;
  incr drive_cycle;
  (* IP module: sample on the rising edge. *)
  Kernel.Clock.on_posedge clock (fun () ->
      if t.cycle < total then begin
        let pi_values = Array.of_list (List.map Kernel.Signal.read pis) in
        let po_values, activity = ip.Ip.step pi_values in
        List.iteri (fun i s -> Kernel.Signal.write s po_values.(i)) pos;
        t.refs.(t.cycle) <-
          Power_model.energy_of_weighted_activity Power_model.default activity;
        Kernel.Signal.write analysis (Array.append pi_values po_values)
      end);
  (* PSM module: a pure observer on the analysis port. *)
  let stepper = Multi_sim.Stepper.create hmm in
  let tracker = Sample_tracker.create (Psm_core.Psm.prop_table (Psm_hmm.Hmm.psm hmm)) in
  Kernel.Signal.on_change analysis (fun () ->
      if t.cycle < total then begin
        Sample_tracker.observe tracker (Kernel.Signal.read analysis);
        Multi_sim.Stepper.advance stepper ~hamming:(Sample_tracker.hamming tracker)
          (Sample_tracker.code tracker);
        let estimate = Multi_sim.Stepper.power stepper in
        Kernel.Signal.write power estimate;
        t.est.(t.cycle) <- estimate;
        t.cycle <- t.cycle + 1
      end);
  t

let pi_signals t = t.pis
let po_signals t = t.pos
let power_estimate t = t.power
let cycles_done t = t.cycle
let estimates t = Array.sub t.est 0 t.cycle
let references t = Array.sub t.refs 0 t.cycle
