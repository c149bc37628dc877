(** Training-trace capture: runs an IP over a stimulus and records the
    functional trace (PIs and POs per cycle) together with the reference
    power trace (the PrimeTime-PX substitute of this reproduction).

    The IP is reset before the run. *)

val run :
  ?config:Psm_rtl.Power_model.config ->
  Ip.t ->
  Workloads.stimulus ->
  Psm_trace.Functional_trace.t * Psm_trace.Power_trace.t
(** Functional and power trace of the run. *)

val run_timed : Ip.t -> Workloads.stimulus -> float
(** Seconds of wall-clock time to step the IP over the stimulus without
    recording anything (pure simulation speed). *)
