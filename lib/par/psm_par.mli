(** An ordered, dependency-free parallel map for the OCaml 5 runtime.

    It exists for the one embarrassingly parallel stage of the
    repository: [Psm_flow.Experiment]'s fan-out of the paper tables over
    benchmark IPs, workload lengths and captures. The training, analysis
    and serving paths are sequential.

    {2 Fork-join}

    Each {!parallel_map} call spawns [min width n - 1] helper domains,
    where [width] is the granted width below and [n] the list length.
    The helpers and the calling domain claim tasks through one atomic
    cursor, so heterogeneous task costs balance without static chunks,
    and the helpers are joined before the call returns, whether or not a
    task raised. No domain outlives a call.

    {2 Domain budget}

    The requested width is [set_jobs]'s override, else [PSM_JOBS], else
    {!recommended_domains}; the granted width is
    [min requested (recommended_domains ())]. Requesting more domains
    than cores multiplies stop-the-world GC synchronization latency by
    the oversubscription factor: the committed BENCH_1 run measured the
    Table-II fan-out at 0.26x sequential speed with 4 domains on 1 core.

    {2 Determinism}

    Results come back in input order, independent of scheduling:
    [parallel_map f xs] is observably [List.map f xs] whenever [f] is
    pure. At granted width 1, or on a list of fewer than two elements,
    the call {e is} [List.map f xs] and spawns no domain, so
    [PSM_JOBS=1] gives the allocation and evaluation order of a build
    without this library.

    {2 Exceptions}

    If one or more applications of [f] raise, the exception of the
    {e lowest input index} is re-raised in the caller with its backtrace,
    as the sequential run would report. Unlike the sequential run, later
    elements have also been evaluated when it surfaces.

    {2 Nesting}

    Every domain taking part in a fan-out, the caller included, is marked
    for the call's duration; a [parallel_map] made from inside one runs
    as [List.map], so nested fan-outs never exceed the granted width. *)

val recommended_domains : unit -> int
(** The number of domains this process can run in parallel:
    [Domain.recommended_domain_count ()] (which respects the CPU affinity
    mask on Linux), at least 1. *)

val default_jobs : unit -> int
(** The requested width: [set_jobs]'s override if any, else the
    [PSM_JOBS] environment variable (clamped to >= 1; a non-numeric
    value is ignored), else [recommended_domains ()]. *)

val set_jobs : int -> unit
(** Override the requested width (clamped to >= 1) for later calls.
    Intended for the bench harness's jobs=1 baseline runs and for tests;
    not serialized against concurrent calls. *)

val parallel_map : ?cost:('a -> float) -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered parallel map. With [~cost], tasks are {e claimed} in
    descending [cost] order (ties by ascending index, the
    longest-processing-time heuristic), so a dominant task starts first
    instead of serializing behind the cheap ones; only the wall clock
    changes, never the results. [cost] is called only when the call
    runs in parallel, and only the ordering it induces matters. *)
