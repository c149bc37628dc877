module Functional_trace = Psm_trace.Functional_trace
module Sample_tracker = Psm_mining.Sample_tracker

type result = {
  estimate : float array;
  desyncs : int list;
  synchronized_fraction : float;
}

type step_outcome = Stay | Advance | Desync

let simulate psm trace =
  if Psm.machine_count psm <> 1 then
    invalid_arg "Sim_single.simulate: PSM set must contain exactly one machine";
  (match Psm.initial psm with
  | [ _ ] -> ()
  | _ -> invalid_arg "Sim_single.simulate: need exactly one initial state");
  List.iter
    (fun (s : Psm.state) ->
      match s.Psm.assertion with
      | Assertion.Until _ | Assertion.Next _ -> ()
      | Assertion.Seq _ | Assertion.Alt _ ->
          invalid_arg "Sim_single.simulate: composite assertions need the HMM simulator")
    (Psm.states psm);
  let n = Functional_trace.length trace in
  let estimate = Array.make n 0. in
  let desyncs = ref [] in
  let current = ref (List.hd (Psm.initial psm)) in
  let just_entered = ref true in
  let unique_successor id =
    match Psm.successors psm id with
    | [ tr ] -> Some tr.Psm.dst
    | [] -> None
    | _ -> invalid_arg "Sim_single.simulate: state with several successors (not a chain)"
  in
  (* A run's first instant carries its input Hamming distance, the
     others 0. *)
  Sample_tracker.iter_runs (Psm.prop_table psm) trace (fun ~start ~len ~code:o ~distance ->
      for t = start to start + len - 1 do
        let s = Psm.state psm !current in
        let outcome =
          if o < 0 then Desync
          else
            match s.Psm.assertion with
            | Assertion.Until (p, q) -> if o = p then Stay else if o = q then Advance else Desync
            | Assertion.Next (p, q) ->
                if !just_entered then if o = p then Stay else Desync
                else if o = q then Advance
                else Desync
            | Assertion.Seq _ | Assertion.Alt _ -> assert false
        in
        (match outcome with
        | Stay -> just_entered := false
        | Advance -> (
            match unique_successor !current with
            | Some next ->
                current := next;
                just_entered := false
            | None ->
                (* Final state of the chain: it absorbs the rest of the
                   trace, as its training interval did. *)
                ())
        | Desync -> desyncs := t :: !desyncs);
        let s = Psm.state psm !current in
        estimate.(t) <-
          Psm.eval_output s.Psm.output
              ~hamming:(if t = start then float_of_int distance else 0.)
      done);
  let desyncs = List.rev !desyncs in
  { estimate;
    desyncs;
    synchronized_fraction =
      (if n = 0 then 1.
       else 1. -. (float_of_int (List.length desyncs) /. float_of_int n)) }
