(** Analyzer rules: named checks over a model-analysis context.

    A rule inspects the context and returns findings; it must be pure
    (no mutation of the model) and total (never raise on malformed
    models — malformedness is exactly what it reports). *)

type context = {
  psm : Psm_core.Psm.t;
  hmm : Psm_hmm.Hmm.t option;
      (** When present, the HMM rules run against it. *)
  gammas : Psm_mining.Prop_trace.t array option;
      (** Training proposition traces (indexed like
          {!Psm_core.Power_attr.interval.trace}); enables the
          input-completeness / stall rule. *)
  powers : Psm_trace.Power_trace.t array option;
      (** Training power traces; enables the merge-conservation rule. *)
  epsilon : float;
      (** Numeric tolerance for conservation and stochasticity checks. *)
  scan : Scan.t;
      (** Shared single-pass statistics, built eagerly by {!context};
          immutable. *)
}

val context :
  ?hmm:Psm_hmm.Hmm.t ->
  ?gammas:Psm_mining.Prop_trace.t array ->
  ?powers:Psm_trace.Power_trace.t array ->
  ?epsilon:float ->
  Psm_core.Psm.t ->
  context
(** Default [epsilon] is [1e-6]. *)

type t = {
  name : string;
  description : string;
  check : context -> Finding.t list;
}

val prop_name : context -> int -> string
(** Display name of a proposition rendered through the model's prop
    table, or ["p<id>?"] when the id is out of range — rules use this so
    findings never raise on dangling ids. *)

val prop_describe : context -> int -> string
(** [prop_name] plus the positive literals of the proposition's truth
    row (Fig. 3 style), for self-contained messages. *)
