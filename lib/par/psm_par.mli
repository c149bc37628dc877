(** A small, dependency-free domain pool for the OCaml 5 runtime, with an
    adaptive scheduler.

    The pool fans work out over [Domain]s coordinated with [Mutex] and
    [Condition] — no Domainslib. It exists for the one embarrassingly
    parallel stage of the repository: [Psm_flow.Experiment]'s fan-out of
    the paper tables over benchmark IPs, workload lengths and captures.
    The training, analysis and serving paths are sequential. The API is
    deliberately tiny: ordered map over lists, plain and cost-weighted.

    {2 Scheduling}

    Tasks are claimed dynamically through an atomic cursor — whichever
    domain finishes its task claims the next one, so heterogeneous task
    costs balance without static chunk assignment. {!parallel_map_weighted}
    additionally orders the claiming schedule heaviest-first
    (longest-processing-time), which bounds the makespan penalty of one
    dominant task landing last.

    {2 Domain budget}

    The pool never runs more domains than the machine can execute:
    [Pool.create ~jobs] grants [min jobs (recommended_domains ())]
    ({!recommended_domains} honours the process CPU affinity mask, so
    containers report their real allowance). Requesting more jobs than
    cores used to multiply stop-the-world GC synchronization latency by
    the oversubscription factor — the committed BENCH_1 run measured the
    Table-II fan-out at 0.26x sequential speed with 4 domains on 1 core.

    {2 Determinism}

    Every function returns results in input order, independent of worker
    scheduling: [parallel_map f xs] is observably [List.map f xs]
    whenever [f] is pure. With granted parallelism 1 no domains are
    spawned at all and the sequential code path runs — [PSM_JOBS=1]
    therefore gives the exact allocation and evaluation order of a build
    without this library.

    {2 Exceptions}

    If one or more applications of [f] raise, the exception of the
    {e lowest input index} is re-raised in the caller (with its
    backtrace), matching what the sequential run would have reported.
    Unlike the sequential run, later elements may already have been
    evaluated when the exception surfaces.

    {2 Nesting}

    Calls made from inside a worker task run sequentially instead of
    deadlocking or oversubscribing: the outer fan-out already owns the
    granted cores. Calls nested on the caller's own domain are safe too —
    the submitting domain always helps drain its own batch. *)

val recommended_domains : unit -> int
(** The number of domains this process can actually run in parallel:
    [Domain.recommended_domain_count ()] (which respects the CPU affinity
    mask on Linux), at least 1. This is the honest ceiling on useful pool
    width; requested jobs above it are granted but not backed by extra
    domains. *)

val default_jobs : unit -> int
(** The parallelism the global pool will be asked for: [set_jobs]'s
    override if any, else the [PSM_JOBS] environment variable (clamped to
    >= 1), else [recommended_domains ()]. The granted width additionally
    clamps to {!recommended_domains}. *)

val set_jobs : int -> unit
(** Override the requested job count (clamped to >= 1) and shut down the
    current global pool so the next parallel call rebuilds it at the new
    width. Intended for the bench harness's jobs=1 baseline runs and for
    tests; not serialized against concurrent parallel calls. *)

module Pool : sig
  type t

  val create : ?oversubscribe:bool -> jobs:int -> unit -> t
  (** A pool requested at [max 1 jobs] width and granted
      [min jobs (recommended_domains ())] — [granted - 1] domains are
      spawned eagerly; the caller of each batch acts as the remaining
      worker. [~oversubscribe:true] (default false) grants the full
      request even beyond the core count: only the determinism tests
      should use it, to force real domain interleaving on small
      machines. *)

  val jobs : t -> int
  (** The requested width. *)

  val parallelism : t -> int
  (** The granted width: 1 + the number of spawned worker domains. *)

  val shutdown : t -> unit
  (** Join all worker domains. Idempotent; using the pool afterwards
      raises [Invalid_argument]. *)
end

val get_pool : unit -> Pool.t
(** The global pool, created on first use with [default_jobs ()] and
    shut down automatically at exit. *)

val parallel_map : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered parallel map. Uses [pool] (default: the global pool); falls
    back to [List.map] when the pool's granted parallelism is 1, the list
    has fewer than two elements, or the caller is itself a pool worker. *)

val parallel_map_weighted :
  ?pool:Pool.t -> cost:('a -> float) -> ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} with a cost-weighted schedule: tasks are {e claimed}
    in descending [cost] order (ties by ascending index), so a dominant
    task starts first instead of serializing behind the cheap ones.
    Results are returned in input order and are identical to
    [parallel_map f xs] — only the wall-clock changes. [cost] need not
    be calibrated; only the ordering it induces matters. *)
