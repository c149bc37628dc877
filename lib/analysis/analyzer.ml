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
  let check (r : Rule.t) =
    Psm_obs.span ("analyze." ^ r.Rule.name) (fun () -> r.Rule.check ctx)
  in
  let findings = Finding.sort (List.concat_map check enabled) in
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
