(** The shared artifact store of the experiment engine.

    Every evaluation path (bench sections, CLI subcommands, report tables)
    needs the same expensive pipeline per [(workload, heuristic level)]:
    build the workload program, run {!Core.Partition.build} (which itself
    interprets the program for profiles), and interpret the partitioned
    program for the dynamic trace.  The store memoizes all three behind a
    structural key, so a full bench run computes each pipeline exactly once
    instead of once per section.

    The store is domain-safe: it is the synchronisation point for
    {!Pool}-parallel jobs.  Each key owns a private in-flight cell with
    its own mutex and condition variable; the first requester computes,
    later requesters block on that key's cell (not on a store-wide
    condvar) until the result lands, so concurrent requests never
    duplicate work and a landing never wakes waiters of unrelated keys.
    Repeated [get]s return the physically same plan and trace.

    On top of the pipeline artifacts the store also memoizes simulation
    statistics for {!Sim.Config.default} machine configurations (keyed by
    [(key, num_pus, in_order)]); these recorded results are what
    {!Job.results_of_store} exports as the machine-readable perf
    trajectory.  Each record carries its {!Sim.Account.t} cycle-attribution
    breakdown, so breakdown reports ([msc breakdown], [bench/account.json])
    are memoized alongside the traces for free. *)

type variant = {
  optimize : bool;    (** classical optimiser pipeline first *)
  if_convert : bool;  (** predication extension first *)
  schedule : bool;    (** register-communication scheduling *)
}

val base_variant : variant
(** All flags off — the paper's baseline compilation. *)

type key = {
  workload : string;
  level : Core.Heuristics.level;
  params : Core.Heuristics.params;
  profile_alt : bool;
      (** profile with the workload's alternative input
          ({!Workloads.Registry.entry}[.build_alt]) instead of itself *)
  variant : variant;
}

type artifact = {
  key : key;
  kind : Workloads.Registry.kind;
  plan : Core.Partition.plan;
  trace : Interp.Trace.t;  (** trace of [plan.prog] *)
}

type t

val create : unit -> t

val get :
  t ->
  ?params:Core.Heuristics.params ->
  ?profile_alt:bool ->
  ?variant:variant ->
  level:Core.Heuristics.level ->
  Workloads.Registry.entry ->
  artifact
(** Fetch or compute the pipeline artifact.  [params] defaults to
    {!Core.Heuristics.default}, [profile_alt] to [false], [variant] to
    {!base_variant}. *)

val prep : t -> artifact -> Sim.Engine.prep
(** Memoized {!Sim.Engine.prepare} of the artifact — the configuration-
    independent half of a simulation (task chop, register-communication
    analyses, layout), shared across every machine configuration swept
    against the same plan and trace. *)

val sim : t -> artifact -> num_pus:int -> in_order:bool -> Sim.Stats.t
(** Memoized [Sim.Engine.run_prepared] over the artifact's shared prep
    on the {!Sim.Config.default} machine with [num_pus] PUs.  Callers must
    treat the returned statistics as read-only: repeated calls share one
    record. *)

val builds : t -> int
(** Number of pipeline computations actually performed (cache misses) —
    the exactly-once property is [builds t = number of distinct keys]. *)

val sim_results : t -> (key * (int * bool) * Sim.Stats.t) list
(** Every simulation recorded by {!sim}, sorted deterministically
    (workload, level, params, profile, variant, PUs, issue discipline). *)

val trace_bytes : t -> int
(** Total resident bytes of all cached packed traces
    ({!Interp.Trace.bytes} summed over every landed pipeline) — the store's
    dominant memory term. *)
