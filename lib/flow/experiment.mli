(** Reproduction harness for the paper's evaluation (Sec. VI): generators
    for each row of Tables I, II and III and for the worked examples of
    Figs. 2, 3 and 5. The bench executable prints these; EXPERIMENTS.md
    records the measured values against the paper's. *)

type ip_spec = {
  ip_name : string;
  make : unit -> Psm_ips.Ip.t;
  source_files : string list;  (** For the "Lines" column of Table I. *)
}

val benchmark_ips : ip_spec list
(** RAM, MultSum, AES, Camellia — the paper's Table I set. *)

(** {1 Table I — benchmark characteristics} *)

type table1_row = {
  t1_name : string;
  lines : int option;
      (** LoC of our models, counted when the library is built; [None]
          when a source file is not among those counted. *)
  pi_bits : int;
  po_bits : int;
  elaboration_s : float option;
      (** Gate-level elaboration time — the "Syn. time" substitute; [None]
          when no structural netlist exists for the IP. *)
  gates : int option;
  logic_depth : int option;
      (** Longest combinational path of the structural netlist. *)
  memory_elements : int;
}

val table1 : unit -> table1_row list

(** {1 Table II — generated-PSM characteristics} *)

type table2_row = {
  t2_name : string;
  ts : int;  (** Trace length (instants). *)
  px_s : float;
      (** Gate-level reference power simulation time over the suite — the
          PrimeTime-PX substitute. Measured on a sample of the suite and
          scaled linearly when the suite is long (the netlist simulator's
          per-cycle cost is constant); EXPERIMENTS.md records the sample
          size. *)
  capture_s : float;
      (** Behavioural capture time (the training traces actually used). *)
  gen_s : float;  (** PSM generation time (mining + generation + combine). *)
  states : int;
  transitions : int;
  mre : float;  (** On the training testset, as in the paper. *)
}

val table2_row : ?config:Flow.config -> total_length:int -> long:bool -> ip_spec -> table2_row

val table2 : ?short_lengths:bool -> ?long_length:int -> unit -> table2_row list
(** All eight rows: the four IPs with short-TS (paper trace lengths when
    [short_lengths], default true) then with long-TS ([long_length]
    defaults to 500000). *)

(** {1 Table III — simulation performance and accuracy} *)

type table3_row = {
  t3_name : string;
  ip_sim_s : float;  (** Bare IP simulation over the evaluation set. *)
  ip_psm_s : float;  (** IP + PSM/HMM lockstep co-simulation. *)
  overhead : float;  (** (ip_psm − ip_sim) / ip_sim. *)
  px_gate_s : float;
      (** Gate-level power simulation time over the same evaluation set
          (sampled + scaled) — what the PSMs replace. *)
  speedup : float;  (** px_gate_s / ip_psm_s: the paper's headline claim. *)
  t3_mre : float;  (** PSMs from short-TS, evaluated on long-TS. *)
  wsp : float;
}

val table3_row : ?config:Flow.config -> eval_length:int -> ip_spec -> table3_row

val table3 : ?eval_length:int -> unit -> table3_row list
(** [eval_length] defaults to 500000 instants, as in the paper. *)

(** {1 Worked examples (Figs. 2, 3, 5)} *)

val fig2_psm : unit -> Psm_core.Psm.t
(** The paper's Fig. 2 three-state off/idle/on example PSM, built by hand
    over a tiny vocabulary; render with {!Psm_core.Dot}. *)

type fig3 = {
  functional : Psm_trace.Functional_trace.t;
  power : Psm_trace.Power_trace.t;
  table : Psm_mining.Prop_trace.Table.t;
  gamma : Psm_mining.Prop_trace.t;
}

val fig3_example : unit -> fig3
(** The paper's Fig. 3 worked example: the 8-instant functional trace over
    v1..v4, its mined proposition trace (p_a..p_d over [0,2], [3,5], [6,6],
    [7,7]) and the power trace. *)

val fig5_psm : fig3 -> Psm_core.Psm.t
(** Runs PSMGenerator on the Fig. 3 traces, reproducing Fig. 5's chain:
    ⟨p_a U p_b, 0, 2⟩ → ⟨p_b U p_c, 3, 5⟩ → ⟨p_c X p_d, 6, 7⟩. *)
