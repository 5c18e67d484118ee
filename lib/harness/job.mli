(** Declarative experiment jobs: [workload × heuristic level × machine
    configuration → result].

    A {!spec} names one simulation; {!run} fans a batch out over the
    {!Pool} domains, sharing pipeline work through an {!Artifact} store, and
    returns structured results in input order.  Results serialise to JSON
    ({!to_json} / {!of_json} round-trip) so the perf trajectory of the repo
    is machine-readable — the bench harness writes [bench/results.json] on
    every run. *)

type spec = {
  workload : string;  (** a {!Workloads.Suite} name *)
  level : Core.Heuristics.level;
  num_pus : int;
  in_order : bool;
}

type result = {
  spec : spec;
  kind : Workloads.Registry.kind;
  ipc : float;
  cycles : int;
  dyn_insns : int;
  tasks : int;
  task_size : float;        (** dynamic instructions per task *)
  ct_per_task : float;      (** control transfers per task *)
  task_mispredict : float;  (** % *)
  window_span : float;      (** measured, occupancy-weighted *)
}

val specs_for :
  ?levels:Core.Heuristics.level list ->
  ?configs:(int * bool) list ->
  string list ->
  spec list
(** Cartesian grid of workloads × levels × [(num_pus, in_order)] machine
    configurations.  Defaults: all four heuristic levels, the single
    8-PU out-of-order configuration. *)

val run : ?jobs:int -> Artifact.t -> spec list -> result list
(** Run a batch through the store on the domain pool.  Result order matches
    spec order; duplicate pipelines are computed once regardless of [jobs]
    (concurrent requesters of one key block until it lands). *)

val result_of_stats :
  spec -> kind:Workloads.Registry.kind -> Sim.Stats.t -> result

val result_to_json : result -> Json.t
(** One result as the object {!to_json} emits per element — the payload
    shape shared by the JSON export and the service protocol. *)

val results_of_store : Artifact.t -> result list
(** The canonical perf trajectory recorded in a store: every memoized
    default-machine simulation whose pipeline used default parameters, the
    baseline variant and self-profiling, in deterministic order. *)

(** {1 Cycle-accounting breakdowns}

    A store's memoized simulations carry their {!Sim.Account.t} breakdown
    inside the recorded statistics; these records expose them as jobs for
    the bench [account] section ([bench/account.json]) and the
    [msc breakdown] subcommand. *)

type account = {
  a_spec : spec;
  a_kind : Workloads.Registry.kind;
  a_acct : Sim.Account.t;
}

val account_of_stats :
  spec -> kind:Workloads.Registry.kind -> Sim.Stats.t -> account

val conserved : account -> bool
(** Does the record satisfy {!Sim.Account.check}? *)

(** {1 Static dependence summaries}

    Per-(workload, level) counts from the {!Core.Depend} static inter-task
    dependence analyzer, grounded against the dynamic trace: every observed
    cross-instance store→load flow ({!Sim.Memflow}) is checked against the
    static prediction.  Soundness means [d_predicted_hit = d_observed];
    the gap to [d_mem_edges] measures precision (predicted pairs that never
    materialise).  These records feed the bench [deps] section
    ([bench/deps.json]) and the [msc deps] subcommand. *)

(** One memory site in the [d_widest] precision ranking.  [w_width] is the
    number of distinct addresses the refined region admits, [-1] when the
    region is unbounded ({!Analysis.Memdep.width} returned [None]). *)
type wide_site = {
  w_fn : string;
  w_blk : int;
  w_idx : int;
  w_store : bool;
  w_width : int;
}

type dep = {
  d_workload : string;
  d_kind : Workloads.Registry.kind;
  d_level : Core.Heuristics.level;
  d_tasks : int;           (** static tasks across the plan *)
  d_reg_edges : int;       (** cross-task register def-use edges *)
  d_mem_edges : int;       (** predicted store-task → load-task pairs *)
  d_fi_mem_edges : int;    (** same, from the flow-insensitive baseline
                               regions ({!Analysis.Memdep.fi_sites}) — the
                               gap to [d_mem_edges] is what the
                               {!Analysis.Absint} refinement pruned *)
  d_store_sites : int;     (** static store sites the regions summarise *)
  d_load_sites : int;
  d_unbounded_sites : int; (** refined sites with no finite region width *)
  d_fi_unbounded_sites : int;  (** baseline sites with no finite width *)
  d_widest : wide_site list;   (** top-5 widest refined sites, widest first
                                   (unbounded outranks any finite width) *)
  d_observed : int;        (** distinct observed store→load task pairs *)
  d_predicted_hit : int;   (** observed pairs the analyzer predicted *)
  d_dyn_flows : int;       (** dynamic load occurrences behind [d_observed] *)
}

val precision_of_summary :
  Ir.Prog.t -> Analysis.Memdep.t -> int * int * wide_site list
(** [(unbounded, fi_unbounded, widest)] over every memory site of the
    program: refined and baseline sites with no finite region width, and
    the top-5 widest refined sites.  Shared by {!dep_of_artifact} and the
    precision report. *)

val dep_of_artifact : Artifact.artifact -> dep
(** Analyze the artifact's plan and replay its trace.  Not memoized — the
    analysis is cheap next to the pipeline that produced the artifact. *)

val dep_violations : dep -> int
(** [d_observed - d_predicted_hit]; non-zero means the static analysis is
    unsound on this workload (the [dep/sound] lint rule fires). *)

val dep_to_json : dep -> Json.t
(** Integer-only counts (plus the derived [violations]); ratio metrics are
    left to readers so golden snapshots stay float-free. *)

(** {1 Static cost predictions}

    Per-(workload, level) predicted cycle-account shares from the
    {!Core.Cost} static model — no simulation involved.  These records
    feed the bench [cost] section ([bench/cost.json]) and the [msc cost]
    subcommand; the report layer joins them against measured
    {!Sim.Account} shares on [(workload, level)]. *)

type cost = {
  co_workload : string;
  co_kind : Workloads.Registry.kind;
  co_level : Core.Heuristics.level;
  co_tasks : int;     (** static tasks across the plan *)
  co_scalar : float;  (** predicted penalties / useful-work base *)
  co_pred : Analysis.Cost.shares;
}

val cost_of_artifact : Artifact.artifact -> cost
(** Score the artifact's plan with {!Core.Cost.plan_cost}.  Not memoized —
    the model is cheap next to the pipeline that produced the artifact. *)

val cost_to_json : cost -> Json.t
(** The scalar and predicted shares as floats — cost goldens pin these
    bytes deliberately, a formatting drift is a model drift. *)

val account_to_json : account -> Json.t
(** Integer cycle counts per category plus the [budget] ([pus * cycles]);
    percentages are left to readers so golden snapshots stay float-free. *)

val accounts_to_json : account list -> Json.t
(** The [{"accounts": [...]}] object written to [bench/account.json]. *)

(** {1 Fuzz corpus summaries}

    Per-profile aggregates of a differential fuzzing run ({!Fuzz} in
    [lib/fuzz]): how many generated programs went through which oracles and
    how many passed.  These ride along in [results.json] (and
    [bench/fuzz.json]) as the "fuzz" member, next to "jobs". *)

type fuzz = {
  z_seed : int;            (** corpus root seed *)
  z_profile : string;      (** {!Workloads.Synth.Profile} name *)
  z_programs : int;        (** programs generated under this profile *)
  z_levels : int;          (** heuristic levels each program went through *)
  z_lint_pass : int;       (** programs with ir/* + part/* + regcomm/* clean *)
  z_roundtrip_pass : int;  (** programs whose textual round-trip is exact *)
  z_trace_pass : int;      (** programs whose packed traces decode cleanly *)
  z_dep_pass : int;        (** programs with dep/sound + dep/reg clean *)
  z_absint_pass : int;     (** programs with absint/sound + absint/refines clean *)
  z_acct_pass : int;       (** programs with acct/conserve exact *)
  z_cost_pass : int;       (** programs with cost/conserve clean *)
  z_fb_bound_pass : int;   (** programs where fb static cost <= ts seed *)
  z_ref_checked : int;     (** programs given the sim_ref differential *)
  z_ref_pass : int;        (** ... of which were cycle-identical *)
  z_violations : int;      (** total oracle violations under this profile *)
}

val fuzz_to_json : fuzz -> Json.t
(** Integer-only counts, like accounts and deps. *)

val to_json : ?fuzz:fuzz list -> result list -> Json.t
(** The [results.json] object: a "jobs" member holding the results, plus a
    "fuzz" member when [fuzz] is given. *)

val of_json : Json.t -> (result list, string) Stdlib.result
(** The "jobs" member of a {!to_json} object; [Error] on any other shape. *)

val export : path:string -> ?fuzz:fuzz list -> result list -> unit
(** Write {!to_json} to [path] with {!Json.to_file}.
    @raise Sys_error if [path] cannot be written. *)
