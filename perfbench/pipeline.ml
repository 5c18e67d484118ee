(* One (program, level) pipeline, driven through each layer's public entry
   point: task selection, interpretation, simulation preparation and one
   simulation per machine configuration.  No [Harness.Artifact] store is
   involved, so every pipeline does its work cold. *)

type input = { name : string; prog : Ir.Prog.t }

type job = {
  pid : int;
  input : input;
  level : Core.Heuristics.level;
  configs : (int * bool) list;  (** (PUs, in-order issue) *)
}

type sim = { num_pus : int; in_order : bool; stats : Sim.Stats.t }

type result = {
  job : job;
  static_tasks : int;
  interp_steps : int;
  trace_bytes : int;
  task_entries : string;  (** per-function task entry labels of the plan *)
  sims : sim list;
}

(* The short level names of the paper and the CLI. *)
let level_tag : Core.Heuristics.level -> string = function
  | Basic_block -> "bb"
  | Control_flow -> "cf"
  | Data_dependence -> "dd"
  | Task_size -> "ts"
  | Feedback -> "fb"
let config_tag (num_pus, in_order) =
  Printf.sprintf "%d%s" num_pus (if in_order then "io" else "ooo")

let task_entries (plan : Core.Partition.plan) =
  Ir.Prog.Smap.bindings plan.parts
  |> List.map (fun (fname, (part : Core.Task.partition)) ->
         fname ^ ":"
         ^ String.concat ","
             (Array.to_list
                (Array.map (fun (t : Core.Task.t) -> string_of_int t.entry)
                   part.tasks)))
  |> String.concat ";"

let static_tasks (plan : Core.Partition.plan) =
  Ir.Prog.Smap.fold
    (fun _ (part : Core.Task.partition) acc -> acc + Array.length part.tasks)
    plan.parts 0

let run ?spans job =
  let span name f = Spans.with_span spans ~name ~pipeline:job.pid f in
  span "pipeline" (fun () ->
      let plan =
        span
          ("core.select." ^ level_tag job.level)
          (fun () -> Core.Cost.plan_for_level job.level job.input.prog)
      in
      let outcome =
        span "interp.execute" (fun () -> Interp.Run.execute plan.prog)
      in
      let trace = outcome.Interp.Run.trace in
      let prep = span "sim.prepare" (fun () -> Sim.Engine.prepare plan trace) in
      let sims =
        List.map
          (fun (num_pus, in_order) ->
            let cfg = Sim.Config.default ~num_pus ~in_order in
            let r =
              span "sim.simulate" (fun () ->
                  Sim.Engine.run_prepared cfg prep trace)
            in
            { num_pus; in_order; stats = r.Sim.Engine.stats })
          job.configs
      in
      {
        job;
        static_tasks = static_tasks plan;
        interp_steps = outcome.Interp.Run.steps;
        trace_bytes = Interp.Trace.bytes trace;
        task_entries = task_entries plan;
        sims;
      })

(* The same pipeline through the frozen reference simulator
   ([Sim_ref.Engine_ref], the cycle-exact oracle of the event-driven
   core), which interprets and chops on its own: expected outputs for
   inputs that have no recorded digest. *)
let run_reference job =
  let plan = Core.Cost.plan_for_level job.level job.input.prog in
  let sims =
    List.map
      (fun (num_pus, in_order) ->
        let cfg = Sim.Config.default ~num_pus ~in_order in
        let r = Sim_ref.Engine_ref.run cfg plan in
        { num_pus; in_order; stats = r.Sim_ref.Engine_ref.stats })
      job.configs
  in
  (plan, sims)

let stats_fields (s : Sim.Stats.t) =
  [
    s.cycles; s.dyn_insns; s.tasks; s.ct_insns; s.task_predictions;
    s.task_mispredicts; s.intra_branches; s.intra_branch_mispredicts;
    s.start_overhead; s.end_overhead; s.inter_task_comm; s.intra_task_dep;
    s.load_imbalance; s.cf_penalty; s.mem_penalty; s.violations; s.syncs;
    s.arb_overflows; s.l1d_accesses; s.l1d_misses; s.l1i_accesses;
    s.l1i_misses; s.l2_accesses; s.l2_misses; s.ring_sends;
    s.window_span_samples; s.window_span_total;
  ]

let stats_digest s =
  Digest.to_hex
    (Digest.string (String.concat " " (List.map string_of_int (stats_fields s))))

(* Key naming one simulation of one pipeline, e.g. [compress/dd/8ooo]. *)
let sim_key job sim =
  Printf.sprintf "%s/%s/%s" job.input.name (level_tag job.level)
    (config_tag (sim.num_pus, sim.in_order))

(* The digests a result is checked against.  An fb plan's digest also
   covers its task entries, so a search that lands on a different plan
   with identical statistics still shows. *)
let digests ~with_entries ~task_entries job sims =
  List.map
    (fun sim ->
      let d = stats_digest sim.stats in
      let d =
        if with_entries then
          Digest.to_hex (Digest.string (task_entries ^ "|" ^ d))
        else d
      in
      (sim_key job sim, d))
    sims
