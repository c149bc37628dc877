(** The end-to-end methodology of the paper's Fig. 1:

    functional traces + power traces
      → assertion mining (shared vocabulary + proposition traces)
      → PSM generation (one chain per training trace)
      → simplify → join → data-dependent-state optimization
      → HMM construction
      → concurrent simulation / accuracy evaluation.  *)

type config = {
  miner : Psm_mining.Miner.config;
  merge : Psm_core.Merge.config;
  optimize : Psm_core.Optimize.config;
  power : Psm_rtl.Power_model.config;
  analysis : Psm_analysis.Analyzer.config;
      (** The static analyzer gate-checks the combined model once, with
          the full training context; with [analysis.strict] set, an
          [Error]-severity finding on that model raises
          {!Psm_analysis.Analyzer.Strict_failure} instead of silently
          degrading simulation. The generator's raw chains are not
          analyzed at training time: a test pins that they carry no
          [Error] finding. *)
}

val default : config

type timings = {
  mine_s : float;  (** Vocabulary mining + proposition-trace extraction. *)
  generate_s : float;  (** PSMGenerator over all traces. *)
  combine_s : float;  (** simplify + join + optimize + HMM build. *)
  analyze_s : float;
      (** Static analysis of the combined model (one analyzer pass).
          Deliberately excluded from {!total_generation_s}: Table II's
          "PSMs gen." column predates the analyzer. *)
}

val total_generation_s : timings -> float
(** Table II's "PSMs gen." column: everything after the training traces
    exist. *)

type trained = {
  config : config;
  table : Psm_mining.Prop_trace.Table.t;
  traces : Psm_trace.Functional_trace.t array;
  powers : Psm_trace.Power_trace.t array;
  gammas : Psm_mining.Prop_trace.t array;
      (** The interned proposition trace of every training trace, in
          training order — derived once during mining and cached here so
          {!lint} (and any other consumer of the training Γ) does not
          re-classify the functional traces. *)
  raw : Psm_core.Psm.t;  (** The generated chains, pre-combination. *)
  optimized : Psm_core.Psm.t;  (** After simplify, join and optimize. *)
  optimize_reports : Psm_core.Optimize.report list;
  hmm : Psm_hmm.Hmm.t;
  transition_counts : ((int * int) * float) list;
      (** Training transition frequencies the HMM's A was built from
          (persisted with the model). *)
  emission_counts : ((int * int) * float) list;
  analysis : Psm_analysis.Finding.t list;
      (** Findings of the post-combination analyzer run (full context:
          PSM + HMM + training Γ and power traces), sorted by severity.
          Empty means the model passed every registered rule. *)
  timings : timings;
}

val train :
  ?config:config ->
  traces:Psm_trace.Functional_trace.t list ->
  powers:Psm_trace.Power_trace.t list ->
  unit ->
  trained
(** All traces must share one interface; traces and powers are paired
    positionally and must have matching lengths. The static analyzer
    runs once, on the combined model (see {!config.analysis}); with
    [analysis.strict] set it raises
    [Psm_analysis.Analyzer.Strict_failure] on any [Error] finding of that
    model. *)

val lint : trained -> Psm_analysis.Finding.t list
(** Re-run the analyzer over the trained model with the full training
    context (reusing the proposition traces cached in [trained.gammas]).
    [trained.analysis] caches the result of the same run at training
    time. *)

val verify :
  ?coverage_budget:int ->
  ?max_gaps:int ->
  trained ->
  Psm_verify.Verify.report
(** Symbolic verification of the optimized model: run all
    {!Psm_verify.Verify} proofs (feasibility, disjointness, coverage,
    vacuity) and return the full report with stats and witnesses. The
    same checks also run inside {!lint} via the [static-*] analyzer
    rules; this entry point exposes the richer report. *)

(** {1 Training straight from VCD files} *)

type ingested = {
  path : string;
  functional : Psm_trace.Functional_trace.t;
  power : Psm_trace.Power_trace.t;
  ingest : Psm_trace.Reader.stats;  (** per-file ingestion statistics *)
}

val load_vcd :
  ?unknowns:Psm_trace.Reader.unknown_policy ->
  ?period:int ->
  string ->
  ingested
(** Stream one VCD (which must carry the [__power__] real variable) into
    a functional/power trace pair. Raises [Psm_trace.Vcd.Parse_error] on
    malformed input and [Invalid_argument] when the power variable is
    missing. *)

val train_on_vcd_files :
  ?config:config ->
  ?unknowns:Psm_trace.Reader.unknown_policy ->
  ?period:int ->
  string list ->
  trained * ingested list
(** Ingest every file in order and train on the result. The ingested
    list is returned in input order. Raises as {!load_vcd} does, for the
    first file that fails. *)

val train_on_ip :
  ?config:config ->
  Psm_ips.Ip.t ->
  Psm_ips.Workloads.stimulus list ->
  trained
(** Capture one training pair per testbench (the IP is reset before each)
    and train. Use {!Psm_ips.Workloads.suite} to build the testbench
    list. *)

val evaluate :
  trained ->
  Psm_trace.Functional_trace.t ->
  reference:Psm_trace.Power_trace.t ->
  Psm_hmm.Accuracy.report * Psm_hmm.Multi_sim.result
(** Simulate the combined PSMs over a (possibly unseen) functional trace
    and score against the reference power trace. *)

val evaluate_on_ip :
  trained ->
  Psm_ips.Ip.t ->
  Psm_ips.Workloads.stimulus ->
  Psm_hmm.Accuracy.report * Psm_hmm.Multi_sim.result

val cosim_timed :
  trained -> Psm_ips.Ip.t -> Psm_ips.Workloads.stimulus -> float
(** Wall-clock seconds to step the IP and the PSM/HMM simulator in
    lockstep — Table III's "IP+PSMs" column. *)

val split_stimulus : Psm_ips.Workloads.stimulus -> parts:int -> Psm_ips.Workloads.stimulus list
(** Split a stimulus into [min parts (length stimulus)] contiguous chunks
    (never more chunks than samples; a non-empty stimulus never comes
    back as a single unsplit blob unless [parts = 1]). Raises
    [Invalid_argument] when [parts <= 0]. *)
