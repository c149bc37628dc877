type config = {
  strict : bool;
  epsilon : float;
  rules : string list option;
  max_analyze_fraction : float;
}

let default =
  { strict = false; epsilon = 1e-6; rules = None; max_analyze_fraction = 0.5 }

exception Strict_failure of Finding.t list

(* Registration order is the run order; names are unique. *)
let registry : Rule.t list ref = ref []

let register (rule : Rule.t) =
  if List.exists (fun (r : Rule.t) -> r.Rule.name = rule.Rule.name) !registry then
    registry :=
      List.map
        (fun (r : Rule.t) -> if r.Rule.name = rule.Rule.name then rule else r)
        !registry
  else registry := !registry @ [ rule ]

let () =
  List.iter register (Rules_psm.rules @ Rules_hmm.rules @ Rules_static.rules)

let rules () = !registry

(* Work proxy below which [run] skips the pool: rule count × (states +
   transitions). Optimized PSMs (tens of states, ~10² proxy per rule)
   lint in well under a pool dispatch; raw mined chains (10³..10⁴
   states) clear it comfortably. *)
let parallel_work_cutoff = 20_000

let check_strict findings =
  match Finding.errors findings with [] -> () | errors -> raise (Strict_failure errors)

let run ?(config = default) ctx =
  let enabled =
    match config.rules with
    | None -> !registry
    | Some names ->
        List.map
          (fun name ->
            match List.find_opt (fun (r : Rule.t) -> r.Rule.name = name) !registry with
            | Some r -> r
            | None ->
                let available =
                  String.concat ", "
                    (List.map (fun (r : Rule.t) -> r.Rule.name) !registry)
                in
                invalid_arg
                  (Printf.sprintf
                     "Analyzer.run: unknown rule %s (available: %s)" name
                     available))
          names
  in
  (* Rules are independent and the context (scan included) is immutable,
     so they fan out across the Psm_par pool. [parallel_map] returns in
     input order and [Finding.sort] is stable, so the report is
     byte-identical for any PSM_JOBS value; per-rule spans land in each
     worker domain's DLS buffer and merge deterministically.

     Cutoff: a rule pass over a mined PSM (tens of states) runs in
     microseconds, below the pool's dispatch cost — linting Camellia was
     measurably SLOWER parallel than sequential. Only models big enough
     to amortize the fan-out take the pool; the report is byte-identical
     either way. *)
  let psm = ctx.Rule.psm in
  let work =
    List.length enabled
    * (Psm_core.Psm.state_count psm + Psm_core.Psm.transition_count psm)
  in
  let check (r : Rule.t) =
    Psm_obs.span ("analyze." ^ r.Rule.name) (fun () -> r.Rule.check ctx)
  in
  let per_rule =
    if work < parallel_work_cutoff then List.map check enabled
    else Psm_par.parallel_map check enabled
  in
  let findings = Finding.sort (List.concat per_rule) in
  if config.strict then check_strict findings;
  findings

let analyze ?(config = default) ?hmm ?gammas ?powers psm =
  run ~config (Rule.context ?hmm ?gammas ?powers ~epsilon:config.epsilon psm)

(* The analyzer is bookkeeping, not methodology: it must stay cheap
   relative to the generation pipeline it gate-checks. *)
let overhead_check ?(config = default) ~analyze_s ~generation_s () =
  if analyze_s > 0. && generation_s > 0.
     && analyze_s > config.max_analyze_fraction *. generation_s
  then
    [ Finding.v ~rule:"analyzer-overhead" ~severity:Finding.Warning
        ~location:Finding.Model
        (Printf.sprintf
           "static analysis took %.3fs, over %.0f%% of the %.3fs generation time"
           analyze_s
           (100. *. config.max_analyze_fraction)
           generation_s) ]
  else []

let overhead_findings ?(config = default) () =
  let analyze_s = Psm_obs.span_total "flow.analyze" in
  let generation_s =
    Psm_obs.span_total "flow.mine"
    +. Psm_obs.span_total "flow.generate"
    +. Psm_obs.span_total "flow.combine"
  in
  overhead_check ~config ~analyze_s ~generation_s ()
