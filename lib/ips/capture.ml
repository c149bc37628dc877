module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Power_model = Psm_rtl.Power_model

let run ?(config = Power_model.default) (ip : Ip.t) stimulus =
  ip.Ip.reset ();
  let builder = Functional_trace.Builder.create ip.Ip.interface in
  let energies = Array.make (Array.length stimulus) 0. in
  Array.iteri
    (fun t pis ->
      let pos, activity = ip.Ip.step pis in
      energies.(t) <- Power_model.energy_of_weighted_activity config activity;
      Functional_trace.Builder.append builder (Array.append pis pos))
    stimulus;
  (Functional_trace.Builder.finish builder, Power_trace.of_array energies)

let run_timed (ip : Ip.t) stimulus =
  ip.Ip.reset ();
  (* Settle the heap so the measurement does not pay for garbage created
     by whoever ran before us. *)
  Gc.major ();
  let t0 = Unix.gettimeofday () in
  Array.iter (fun pis -> ignore (ip.Ip.step pis)) stimulus;
  Unix.gettimeofday () -. t0
