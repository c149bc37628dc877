(* Symbolic rules: adapters lifting the {!Psm_verify.Verify} proofs into
   the analyzer registry, so Flow.train / psmgen lint / strict CI pick
   them up alongside the dynamic rules. Unlike the replay rules these
   decide properties for ALL input valuations, and refutations carry a
   concrete witness valuation.

   Like every rule they must be pure, total and deterministic — the
   Verify checks are (validation failures become findings, never
   exceptions), so analyzer reports stay byte-identical. *)

module Verify = Psm_verify.Verify

let severity = function
  | Verify.Error -> Finding.Error
  | Verify.Warning -> Finding.Warning
  | Verify.Info -> Finding.Info

let location = function
  | Verify.Model -> Finding.Model
  | Verify.Prop p -> Finding.Prop p
  | Verify.State s -> Finding.State s
  | Verify.Transition { src; guard; dst } -> Finding.Transition { src; guard; dst }

let lift iface (f : Verify.finding) =
  let witness =
    Option.map
      (fun values ->
        { Finding.values; bindings = Verify.bindings iface values })
      f.Verify.witness
  in
  Finding.v ?witness ~rule:f.Verify.check ~severity:(severity f.Verify.severity)
    ~location:(location f.Verify.location) f.Verify.message

let iface_of (ctx : Rule.context) =
  Psm_mining.Vocabulary.interface
    (Psm_mining.Prop_trace.Table.vocabulary (Psm_core.Psm.prop_table ctx.Rule.psm))

let lift_all ctx fs = List.map (lift (iface_of ctx)) fs

let rules : Rule.t list =
  [
    {
      Rule.name = "static-feasibility";
      description =
        "every proposition and transition guard admits an input valuation, \
         and guards can start their destination's assertion (theory proof)";
      check = (fun ctx -> lift_all ctx (Verify.feasibility ctx.Rule.psm));
    };
    {
      Rule.name = "static-disjointness";
      description =
        "propositions are pairwise mutually exclusive and same-state guards \
         deterministic, for all input valuations (theory proof)";
      check = (fun ctx -> lift_all ctx (Verify.disjointness ctx.Rule.psm));
    };
    {
      Rule.name = "static-coverage";
      description =
        "input valuations no proposition covers — statically predicted \
         resync regions, with witnesses";
      check = (fun ctx -> lift_all ctx (Verify.coverage ctx.Rule.psm));
    };
    {
      Rule.name = "static-vacuity";
      description =
        "degenerate assertion patterns: unsatisfiable propositions, \
         unchainable Seq steps, Alt branches subsumed by a sibling";
      check = (fun ctx -> lift_all ctx (Verify.vacuity ctx.Rule.psm));
    };
  ]
