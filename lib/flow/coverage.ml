module Psm = Psm_core.Psm
module Functional_trace = Psm_trace.Functional_trace
module Sample_tracker = Psm_mining.Sample_tracker
module Multi_sim = Psm_hmm.Multi_sim

type report = {
  instants : int;
  known_instants : int;
  known_fraction : float;
  states_visited : int;
  states_total : int;
  transitions_taken : int;
  transitions_total : int;
  unknown_row_samples : int list;
}

let of_trace hmm trace =
  let psm = Psm_hmm.Hmm.psm hmm in
  let table = Psm.prop_table psm in
  let n = Functional_trace.length trace in
  let known = ref 0 in
  let unknown_samples = ref [] in
  Sample_tracker.iter_runs table trace (fun ~start ~len ~code ~distance:_ ->
      if code >= 0 then known := !known + len
      else
        for time = start to start + len - 1 do
          if List.length !unknown_samples < 10 then
            unknown_samples := time :: !unknown_samples
        done);
  let result = Multi_sim.simulate hmm trace in
  let visited = Hashtbl.create 16 in
  let edges = Hashtbl.create 32 in
  let prev = ref (-1) in
  Array.iter
    (fun sid ->
      if sid >= 0 then begin
        Hashtbl.replace visited sid ();
        if !prev >= 0 && !prev <> sid then Hashtbl.replace edges (!prev, sid) ()
      end;
      prev := sid)
    result.Multi_sim.state_trace;
  (* Count only edges that exist in the machine (resync jumps may take
     paths the structure does not have). *)
  let structural = Hashtbl.create 32 in
  List.iter
    (fun (tr : Psm.transition) -> Hashtbl.replace structural (tr.Psm.src, tr.Psm.dst) ())
    (Psm.transitions psm);
  let transitions_taken =
    Hashtbl.fold
      (fun edge () acc -> if Hashtbl.mem structural edge then acc + 1 else acc)
      edges 0
  in
  let structural_pairs = Hashtbl.length structural in
  { instants = n;
    known_instants = !known;
    known_fraction = (if n = 0 then 1. else float_of_int !known /. float_of_int n);
    states_visited = Hashtbl.length visited;
    states_total = Psm.state_count psm;
    transitions_taken;
    transitions_total = structural_pairs;
    unknown_row_samples = List.rev !unknown_samples }

let pp fmt r =
  Format.fprintf fmt
    "@[<v>instants: %d (known rows: %.1f%%)@,states: %d / %d visited@,\
     transitions: %d / %d taken@]"
    r.instants (100. *. r.known_fraction) r.states_visited r.states_total
    r.transitions_taken r.transitions_total;
  if r.unknown_row_samples <> [] then begin
    Format.fprintf fmt "@,unknown rows at:";
    List.iter (fun t -> Format.fprintf fmt " %d" t) r.unknown_row_samples
  end
