(** The diagnostics engine: runs the rule registry over a model and
    collects sorted findings.

    The registry starts with the built-in rules ({!Rules_psm.rules} then
    {!Rules_hmm.rules}); {!register} extends or replaces it. *)

type config = {
  strict : bool;
      (** Raise {!Strict_failure} when any [Error]-severity finding
          survives. *)
  epsilon : float;  (** Numeric tolerance fed to the rule context. *)
  rules : string list option;
      (** Restrict the run to these rule names ([None] = all). Unknown
          names raise [Invalid_argument]. *)
  max_analyze_fraction : float;
      (** {!overhead_check} warns when static analysis exceeded this
          fraction of the generation pipeline's wall time. *)
}

val default : config
(** [{ strict = false; epsilon = 1e-6; rules = None;
       max_analyze_fraction = 0.5 }] *)

exception Strict_failure of Finding.t list
(** Carries the [Error]-severity findings only. *)

val register : Rule.t -> unit
(** Add a rule (replacing any registered rule of the same name). *)

val rules : unit -> Rule.t list
(** The registry, in registration order. *)

val run : ?config:config -> Rule.context -> Finding.t list
(** Run the enabled rules over the context; findings come back sorted by
    severity. In strict mode, raises {!Strict_failure} if any [Error]
    finding was produced (after returning-none rules ran too, so the
    exception carries the complete error list). *)

val analyze :
  ?config:config ->
  ?hmm:Psm_hmm.Hmm.t ->
  ?gammas:Psm_mining.Prop_trace.t array ->
  ?powers:Psm_trace.Power_trace.t array ->
  Psm_core.Psm.t ->
  Finding.t list
(** Convenience: build the context (with [config.epsilon]) and {!run}. *)

val check_strict : Finding.t list -> unit
(** Raise {!Strict_failure} if the findings contain an [Error]. *)

(** {1 Analyzer self-accounting}

    The analyzer gate-checks generated models, so its own cost must stay
    small next to the pipeline it checks. This produces at most one
    [Warning]-severity [analyzer-overhead] finding located on the model. *)

val overhead_check :
  ?config:config -> analyze_s:float -> generation_s:float -> unit -> Finding.t list
(** Compare explicit wall times (e.g. a {!Psm_flow.Flow.timings} record)
    against [config.max_analyze_fraction]. Zero or negative times never
    warn. *)
