(* msc — Multiscalar task-selection reproduction driver.

   Subcommands:
     list        show the workload suite
     run         compile + simulate one workload on one configuration
     breakdown   attribute every PU-cycle of the grid to the paper's
                 performance issues (per workload x heuristic x PU count)
     dump        print the CFG and the task partition of a workload
     run-file    parse a textual IR program (see Ir.Parse) and simulate it
     export      print a workload in the textual IR format
     dot         emit a Graphviz CFG coloured by task
     superscalar simulate on the centralised superscalar reference machine
     lint        statically verify IR, partitions and register communication
     deps        static cross-task dependence edges vs observed trace flows
     absint      flow-sensitive refinement precision vs the baseline regions
     cost        predicted cycle-account shares (static model) vs measured
     trace-stats memory statistics of the packed dynamic traces
     fuzz        differential fuzzing over the synthetic corpus (lint,
                 round-trip, dep/sound, absint, acct/conserve, cost,
                 fb-bound and the frozen sim_ref cycle differential as
                 oracles)
     table1      regenerate the paper's Table 1
     figure5     regenerate the paper's Figure 5
     bench-time  wall-clock table1/figure5 into BENCH_figure5.json
     daemon      run the mscd simulation service
     client      send one request to a running mscd

   Every report is a query on one grid: workloads x heuristic levels x
   machines.  The options that spell the query mean the same on every
   subcommand that takes them:
     --only W,..    workloads (default: the whole suite); -w W names one
     -l LEVEL       one heuristic level, bb/cf/dd/ts/fb or its long name
                    (default: the subcommand's level list)
     -p N           processing units; --in-order for in-order PUs
     -j N           worker domains (default: HARNESS_JOBS or the core count)
     --json FILE    also write the structured results to FILE
   A bad value (unknown workload, level or profile, a count below 1, a
   malformed HARNESS_JOBS) is reported as a command-line error that names
   it, with a non-zero exit status; an unwritable --json path exits 1. *)

open Cmdliner

(* --- the grid query ------------------------------------------------------- *)

let pos_int =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> Ok n
    | _ -> Error (Printf.sprintf "expected a positive integer, got %S" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let workload_conv =
  let parse s =
    match Workloads.Suite.find s with
    | e -> Ok e
    | exception Not_found ->
      Error
        (Printf.sprintf "unknown workload %S (expected one of %s)" s
           (String.concat ", " (Workloads.Suite.names ())))
  in
  let print ppf e = Format.pp_print_string ppf e.Workloads.Registry.name in
  Arg.conv' (parse, print)

let level_conv =
  let print ppf l = Format.pp_print_string ppf (Core.Heuristics.level_name l) in
  Arg.conv' (Core.Heuristics.level_of_string, print)

let workload_arg =
  let doc = "Workload name (see $(b,msc list))." in
  Arg.(required & opt (some workload_conv) None & info [ "w"; "workload" ] ~doc)

let only_arg =
  let doc = "Comma-separated subset of workloads." in
  Arg.(value & opt (list workload_conv) Workloads.Suite.all
       & info [ "only" ] ~absent:"all" ~doc)

let some_level doc =
  Arg.(value & opt (some level_conv) None & info [ "l"; "level" ] ~doc)

(* The single-pipeline subcommands simulate one level, dd by default. *)
let level_arg =
  Term.(const (Option.value ~default:Core.Heuristics.Data_dependence)
        $ some_level "Task-selection heuristic: bb, cf, dd, ts or fb \
                      (default: dd).")

(* The grid subcommands sweep [default] unless -l picks one level. *)
let levels_arg default =
  let doc =
    Printf.sprintf "Restrict to one heuristic level (default: %s)."
      (String.concat ", " (List.map Core.Heuristics.level_tag default))
  in
  Term.(const (Option.fold ~none:default ~some:(fun l -> [ l ]))
        $ some_level doc)

let pus_arg =
  let doc = "Number of processing units." in
  Arg.(value & opt pos_int 8 & info [ "p"; "pus" ] ~doc)

let in_order_arg =
  let doc = "Use in-order PUs (default: out-of-order)." in
  Arg.(value & flag & info [ "in-order" ] ~doc)

(* The HARNESS_JOBS default is resolved here, so a malformed value is a
   command-line error rather than an exception from the first fan-out. *)
let jobs_arg =
  let doc =
    "Worker domains for experiment batches (default: HARNESS_JOBS or the \
     host's core count; 1 = serial)."
  in
  let resolve = function
    | Some j -> Ok j
    | None -> (
      try Ok (Harness.Pool.default_jobs ()) with Failure msg -> Error msg)
  in
  Term.(term_result'
          (const resolve
           $ Arg.(value & opt (some pos_int) None & info [ "j"; "jobs" ] ~doc)))

let json_arg =
  let doc =
    "Also write the structured results as JSON to $(docv) (the shape of the \
     matching $(b,bench/*.json) file)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let optimize_arg =
  let doc = "Run the classical optimisation pipeline first." in
  Arg.(value & flag & info [ "optimize" ] ~doc)

let if_convert_arg =
  let doc = "Run the if-conversion (predication) extension first." in
  Arg.(value & flag & info [ "if-convert" ] ~doc)

let schedule_arg =
  let doc = "Run register-communication scheduling." in
  Arg.(value & flag & info [ "schedule" ] ~doc)

(* One artifact store per CLI invocation: every subcommand resolves its
   plans, traces and default-machine simulations through the engine. *)
let store = Harness.Artifact.create ()

(* Every file msc writes goes through here: an unwritable path is a user
   error (exit 1), not an uncaught exception. *)
let write_json path json =
  try Harness.Json.to_file path json
  with Sys_error msg ->
    Printf.eprintf "msc: cannot write %s\n" msg;
    exit 1

(* --json: write [json ()] to the path, if one was given, and say so,
   naming the [records] count when there is one. *)
let export ?records path json =
  Option.iter
    (fun path ->
      write_json path (json ());
      match records with
      | None -> Printf.printf "wrote %s\n" path
      | Some (n, what) -> Printf.printf "wrote %s (%d %s)\n" path n what)
    path

let export_results path =
  let results = Harness.Job.results_of_store store in
  export path ~records:(List.length results, "job results") (fun () ->
      Harness.Job.to_json results)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-10s %-4s %s\n" e.Workloads.Registry.name
          (Workloads.Registry.kind_name e.Workloads.Registry.kind)
          e.Workloads.Registry.description)
      Workloads.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the workload suite")
    Term.(const run $ const ())

(* --- run / breakdown ----------------------------------------------------- *)

let run_cmd =
  let run entry level pus in_order optimize if_convert schedule =
    let art =
      Harness.Artifact.get store
        ~variant:{ Harness.Artifact.optimize; if_convert; schedule }
        ~level entry
    in
    let s = Harness.Artifact.sim store art ~num_pus:pus ~in_order in
    Printf.printf "%s %s %dPU %s: IPC %.3f (%d insns / %d cycles), %d tasks\n"
      entry.Workloads.Registry.name
      (Core.Heuristics.level_name level)
      pus
      (if in_order then "in-order" else "out-of-order")
      (Sim.Stats.ipc s) s.Sim.Stats.dyn_insns s.Sim.Stats.cycles
      s.Sim.Stats.tasks;
    Printf.printf
      "task size %.1f, ct/task %.2f, task mispred %.2f%%, window span %.0f\n"
      (Sim.Stats.avg_task_size s)
      (Sim.Stats.avg_ct_per_task s)
      (Sim.Stats.task_mispredict_rate s)
      (Sim.Stats.measured_window_span s)
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one workload")
    Term.(const run $ workload_arg $ level_arg $ pus_arg $ in_order_arg
          $ optimize_arg $ if_convert_arg $ schedule_arg)

let breakdown_cmd =
  let pus_list_arg =
    let doc = "Comma-separated PU counts of the grid." in
    Arg.(value & opt (list pos_int) Report.Breakdown.default_pus
         & info [ "p"; "pus" ] ~docv:"PUS" ~doc)
  in
  let stats_arg =
    let doc =
      "Also print the full per-cell statistics record (Figure-2 phases, \
       predictors, memory system)."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run entries levels jobs pus in_order stats json =
    let rows =
      Report.Breakdown.run ~store ~jobs ~levels ~pus ~in_order entries
    in
    Format.printf "%a@." Report.Breakdown.pp rows;
    Format.printf "%a@." Report.Breakdown.pp_aggregate rows;
    if stats then
      List.iter
        (fun (r : Report.Experiment.run_result) ->
          Format.printf "-- %s %s %dPU %s --@.%a@." r.Report.Experiment.workload
            (Core.Heuristics.level_name r.Report.Experiment.level)
            r.Report.Experiment.num_pus
            (if r.Report.Experiment.in_order then "in-order"
             else "out-of-order")
            Sim.Stats.pp r.Report.Experiment.stats)
        rows;
    export json ~records:(List.length rows, "breakdown records") (fun () ->
        Report.Breakdown.to_json rows)
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:
         "Attribute every PU-cycle of the workload grid to the paper's \
          performance issues")
    Term.(const run $ only_arg $ levels_arg Core.Heuristics.all_levels
          $ jobs_arg $ pus_list_arg $ in_order_arg $ stats_arg $ json_arg)

(* --- dump ---------------------------------------------------------------- *)

let dump_cmd =
  let run entry level =
    let art = Harness.Artifact.get store ~level entry in
    let plan = art.Harness.Artifact.plan in
    Format.printf "%a@." Ir.Prog.pp plan.Core.Partition.prog;
    Ir.Prog.Smap.iter
      (fun _ part -> Format.printf "%a@." Core.Task.pp part)
      plan.Core.Partition.parts
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print the CFG and task partition")
    Term.(const run $ workload_arg $ level_arg)

(* --- file-based programs ------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_file_cmd =
  let path_arg =
    let doc = "Path to a textual IR program (see Ir.Parse)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run path level pus in_order =
    match Ir.Parse.program (read_file path) with
    | Error e ->
      Printf.eprintf "parse error: %s
" e;
      exit 1
    | Ok prog ->
      let plan = Core.Cost.plan_for_level level prog in
      let cfg = Sim.Config.default ~num_pus:pus ~in_order in
      let r = Sim.Engine.run cfg plan in
      let s = r.Sim.Engine.stats in
      Printf.printf "%s %s %dPU: IPC %.3f (%d insns / %d cycles)
" path
        (Core.Heuristics.level_name level)
        pus (Sim.Stats.ipc s) s.Sim.Stats.dyn_insns s.Sim.Stats.cycles
  in
  Cmd.v
    (Cmd.info "run-file" ~doc:"Parse a textual IR program and simulate it")
    Term.(const run $ path_arg $ level_arg $ pus_arg $ in_order_arg)

let export_cmd =
  let run entry =
    print_string (Ir.Pp.program_text (entry.Workloads.Registry.build ()))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Print a workload as parseable textual IR (see run-file)")
    Term.(const run $ workload_arg)

let dot_cmd =
  let fname_arg =
    let doc = "Function to draw (default: main)." in
    Arg.(value & opt string "main" & info [ "f"; "function" ] ~doc)
  in
  let run entry level fname =
    let art = Harness.Artifact.get store ~level entry in
    let plan = art.Harness.Artifact.plan in
    let f = Ir.Prog.find plan.Core.Partition.prog fname in
    let part = Ir.Prog.Smap.find fname plan.Core.Partition.parts in
    let partition blk =
      (* colour by the first task containing the block *)
      let found = ref 0 in
      Array.iteri
        (fun i (t : Core.Task.t) ->
          if !found = 0 && Core.Task.Iset.mem blk t.Core.Task.blocks then
            found := i)
        part.Core.Task.tasks;
      !found
    in
    print_string (Ir.Pp.dot_of_func ~partition f)
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Emit a Graphviz CFG of a workload function, coloured by task")
    Term.(const run $ workload_arg $ level_arg $ fname_arg)

let superscalar_cmd =
  let width_arg =
    let doc = "Issue width of the superscalar machine." in
    Arg.(value & opt pos_int 4 & info [ "width" ] ~doc)
  in
  let rob_arg =
    let doc = "Reorder-buffer size." in
    Arg.(value & opt pos_int 64 & info [ "rob" ] ~doc)
  in
  let run entry width rob =
    let prog = entry.Workloads.Registry.build () in
    let outcome = Interp.Run.execute prog in
    let cfg =
      {
        (Sim.Config.default ~num_pus:1 ~in_order:false) with
        Sim.Config.issue_width = width;
        rob_size = rob;
        iq_size = max 8 (rob / 2);
        fu_int = width;
        fu_fp = max 1 (width / 2);
        fu_mem = max 1 (width / 2);
        fu_branch = max 1 (width / 2);
      }
    in
    let r = Sim.Superscalar.run cfg outcome.Interp.Run.trace in
    Printf.printf
      "%s superscalar %d-wide/ROB %d: IPC %.3f, avg window %.1f, branch        mispredict %.2f%%
"
      entry.Workloads.Registry.name width rob
      (Sim.Stats.ipc r.Sim.Superscalar.stats)
      r.Sim.Superscalar.avg_window
      (Sim.Stats.branch_mispredict_rate r.Sim.Superscalar.stats)
  in
  Cmd.v
    (Cmd.info "superscalar"
       ~doc:"Simulate a workload on the centralised superscalar reference")
    Term.(const run $ workload_arg $ width_arg $ rob_arg)

let timeline_cmd =
  let count_arg =
    let doc = "Number of dynamic tasks to show." in
    Arg.(value & opt int 32 & info [ "n" ] ~doc)
  in
  let skip_arg =
    let doc = "Skip this many dynamic tasks first (past the warm-up)." in
    Arg.(value & opt int 200 & info [ "skip" ] ~doc)
  in
  let run entry level pus in_order n skip =
    let art = Harness.Artifact.get store ~level entry in
    let plan = art.Harness.Artifact.plan in
    let cfg = Sim.Config.default ~num_pus:pus ~in_order in
    let base = ref (-1) in
    Printf.printf "%6s %3s %-24s %8s %8s %8s %s
" "task" "pu" "entry"
      "assign" "done" "retire" "flags";
    let observer (e : Sim.Engine.event) =
      if e.Sim.Engine.e_index >= skip && e.Sim.Engine.e_index < skip + n then begin
        if !base < 0 then base := e.Sim.Engine.e_assign;
        let inst = e.Sim.Engine.e_instance in
        let fname =
          (Ir.Prog.func_names plan.Core.Partition.prog |> fun names ->
           List.nth names inst.Sim.Dyntask.fid)
        in
        let part = Ir.Prog.Smap.find fname plan.Core.Partition.parts in
        let entry_blk =
          part.Core.Task.tasks.(inst.Sim.Dyntask.task).Core.Task.entry
        in
        Printf.printf "%6d %3d %-24s %8d %8d %8d %s%s
"
          e.Sim.Engine.e_index e.Sim.Engine.e_pu
          (Printf.sprintf "%s/L%d (%d insns)" fname entry_blk
             inst.Sim.Dyntask.size)
          (e.Sim.Engine.e_assign - !base)
          (e.Sim.Engine.e_complete - !base)
          (e.Sim.Engine.e_retire - !base)
          (if e.Sim.Engine.e_mispredicted then "MISPRED " else "")
          (if e.Sim.Engine.e_violations > 0 then
             Printf.sprintf "VIOLx%d" e.Sim.Engine.e_violations
           else "")
      end
    in
    ignore
      (Sim.Engine.run_with_trace ~observer cfg plan art.Harness.Artifact.trace)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Print the schedule of a window of dynamic tasks")
    Term.(const run $ workload_arg $ level_arg $ pus_arg $ in_order_arg
          $ count_arg $ skip_arg)

(* --- lint ----------------------------------------------------------------- *)

let lint_cmd =
  let rule_arg =
    let doc =
      "Keep only diagnostics whose rule id matches this anchored glob \
       ($(b,*) matches any substring), e.g. $(b,dep/*) or \
       $(b,part/stale-*).  The exit status reflects the filtered set."
    in
    Arg.(value & opt (some string) None & info [ "rule" ] ~docv:"GLOB" ~doc)
  in
  let run entries levels rule jobs json =
    let reports = Lint.check_suite ~jobs ~levels ~store entries in
    let reports =
      match rule with None -> reports | Some pat -> Lint.filter_rule pat reports
    in
    List.iter
      (fun (r : Lint.report) ->
        List.iter (fun d -> Format.printf "%a@." Lint.Diag.pp d) r.Lint.diags;
        let e = Lint.Diag.count Lint.Diag.Error r.Lint.diags in
        let w = Lint.Diag.count Lint.Diag.Warning r.Lint.diags in
        let i = Lint.Diag.count Lint.Diag.Info r.Lint.diags in
        if e + w + i > 0 then
          Printf.printf "%-10s %-15s %d errors, %d warnings, %d infos\n"
            r.Lint.workload
            (Core.Heuristics.level_name r.Lint.level)
            e w i)
      reports;
    export json (fun () -> Lint.report_to_json reports);
    let errors = Lint.total_errors reports in
    Printf.printf "lint: %d plans checked, %d errors\n" (List.length reports)
      errors;
    if errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify IR, partitions, register communication and \
          cross-task dependences (filter rule families with $(b,--rule))")
    Term.(const run $ only_arg $ levels_arg Core.Heuristics.all_levels
          $ rule_arg $ jobs_arg $ json_arg)

(* --- deps ------------------------------------------------------------------ *)

let deps_cmd =
  let run entries levels pus in_order jobs json =
    let rows =
      Report.Deps.run ~store ~jobs ~levels ~num_pus:pus ~in_order entries
    in
    Format.printf "%a@." Report.Deps.pp rows;
    export json ~records:(List.length rows, "dependence summaries") (fun () ->
        Report.Deps.to_json rows);
    let violations = Report.Deps.violations rows in
    if violations > 0 then begin
      Printf.printf
        "deps: %d observed dependences NOT statically predicted\n" violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "deps"
       ~doc:
         "Static cross-task dependence edges (Core.Depend) grounded against \
          the observed trace flows, with per-level correlation against the \
          data_wait/mem_squash cycle shares")
    Term.(const run $ only_arg $ levels_arg Core.Heuristics.all_levels
          $ pus_arg $ in_order_arg $ jobs_arg $ json_arg)

(* --- absint ---------------------------------------------------------------- *)

let absint_cmd =
  let run entries levels jobs json =
    let rows = Report.Precision.run ~store ~jobs ~levels entries in
    Format.printf "%a@." Report.Precision.pp rows;
    export json ~records:(List.length rows, "precision rows") (fun () ->
        Report.Precision.to_json rows)
  in
  Cmd.v
    (Cmd.info "absint"
       ~doc:
         "Flow-sensitive refinement precision (Analysis.Absint): cross-task \
          memory edges pruned against the flow-insensitive baseline, \
          unbounded-region sites and the widest refined regions per \
          workload and level")
    Term.(const run $ only_arg $ levels_arg Core.Heuristics.all_levels
          $ jobs_arg $ json_arg)

(* --- cost ------------------------------------------------------------------ *)

let cost_cmd =
  let run entries levels pus in_order jobs json =
    let rows =
      Report.Cost.run ~store ~jobs ~levels ~num_pus:pus ~in_order entries
    in
    Format.printf "%a@." Report.Cost.pp rows;
    export json ~records:(List.length rows, "cost rows") (fun () ->
        Report.Cost.to_json rows)
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:
         "Predicted cycle-account shares of every plan (Analysis.Cost \
          static model) joined against the measured Sim.Account shares, \
          with per-level predicted-vs-measured correlations and geomean \
          IPC")
    Term.(const run $ only_arg $ levels_arg Core.Heuristics.extended_levels
          $ pus_arg $ in_order_arg $ jobs_arg $ json_arg)

(* --- trace-stats ----------------------------------------------------------- *)

let trace_stats_cmd =
  let pred_arg =
    let doc = "Task prediction accuracy for the window-span series." in
    Arg.(value & opt float 1.0 & info [ "pred" ] ~doc)
  in
  let run entries level jobs pus pred =
    let per_workload =
      Harness.Pool.map ~jobs
        (fun (e : Workloads.Registry.entry) ->
          let art = Harness.Artifact.get store ~level e in
          let trace = art.Harness.Artifact.trace in
          let plan = art.Harness.Artifact.plan in
          let parts =
            Array.map
              (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
              trace.Interp.Trace.fnames
          in
          let tasks = Sim.Dyntask.chop trace ~parts in
          let span =
            Report.Window_span.measured ~num_pus:pus ~pred trace ~tasks
          in
          (e.Workloads.Registry.name, trace, Array.length tasks, span))
        entries
    in
    Printf.printf "%-10s %9s %9s %9s %6s %8s %7s %8s\n" "workload" "events"
      "insns" "addrs" "w/ev" "KB" "tasks" "span";
    let tot_ev = ref 0 in
    let tot_heap = ref 0 in
    List.iter
      (fun (name, trace, tasks, span) ->
        let events = Interp.Trace.num_events trace in
        let heap = Interp.Trace.heap_words trace in
        tot_ev := !tot_ev + events;
        tot_heap := !tot_heap + heap;
        Printf.printf "%-10s %9d %9d %9d %6.2f %8.1f %7d %8.0f\n" name events
          trace.Interp.Trace.dyn_insns trace.Interp.Trace.n_addrs
          (float_of_int heap /. float_of_int (max 1 events))
          (float_of_int (Interp.Trace.bytes trace) /. 1024.0)
          tasks span)
      per_workload;
    Printf.printf
      "total: %d events, %d packed words (%.2f w/ev); store holds %.1f KB \
       of traces\n"
      !tot_ev !tot_heap
      (float_of_int !tot_heap /. float_of_int (max 1 !tot_ev))
      (float_of_int (Harness.Artifact.trace_bytes store) /. 1024.0)
  in
  Cmd.v
    (Cmd.info "trace-stats"
       ~doc:"Memory statistics of the packed dynamic traces")
    Term.(const run $ only_arg $ level_arg $ jobs_arg $ pus_arg $ pred_arg)

(* --- fuzz ----------------------------------------------------------------- *)

let fuzz_cmd =
  let seed_arg =
    let doc = "Corpus root seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let n_arg =
    let doc = "Number of programs (spread round-robin over the profiles)." in
    Arg.(value & opt int 200 & info [ "n" ] ~docv:"N" ~doc)
  in
  let profile_conv =
    let parse s =
      match Workloads.Synth.Profile.find (String.trim s) with
      | Some p -> Ok p
      | None ->
        Error
          (Printf.sprintf "unknown fuzz profile %S (expected one of %s)" s
             (String.concat ", "
                (List.map
                   (fun p -> p.Workloads.Synth.Profile.name)
                   Workloads.Synth.Profile.all)))
    in
    let print ppf p =
      Format.pp_print_string ppf p.Workloads.Synth.Profile.name
    in
    Arg.conv' (parse, print)
  in
  let profile_arg =
    let doc = "Comma-separated subset of corpus profiles." in
    Arg.(value & opt (list profile_conv) Workloads.Synth.Profile.all
         & info [ "profile" ] ~absent:"all" ~docv:"NAMES" ~doc)
  in
  let ref_sample_arg =
    let doc =
      "Run the frozen sim_ref cycle differential on every $(docv)-th \
       program (0 disables it)."
    in
    Arg.(value & opt int 10 & info [ "ref-sample" ] ~docv:"K" ~doc)
  in
  let out_arg =
    let doc = "Directory for minimized reproducer dumps." in
    Arg.(value & opt string "fuzz-reproducers"
         & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let inject_arg =
    let doc =
      "Debug: inject a known divide-by-zero fault into every program — the \
       harness must catch it, shrink it and dump a reproducer (the run \
       exits non-zero by design)."
    in
    Arg.(value & flag & info [ "inject-fault" ] ~doc)
  in
  let run seed n profiles levels ref_sample jobs out json inject =
    let cfg =
      { Fuzz.default_config with Fuzz.seed; n; profiles; levels; ref_sample }
    in
    if inject then Fuzz.fault_hook := Some (Fuzz.inject_div0 ~seed);
    let progress ~done_ ~total =
      Printf.eprintf "\rfuzz: %d/%d programs%!" done_ total
    in
    let o = Fuzz.run ~jobs ~progress cfg in
    Printf.eprintf "\r%!";
    Printf.printf "%-13s %5s %5s %5s %6s %5s %6s %5s %5s %5s %5s %7s\n"
      "profile" "progs" "lint" "rt" "trace" "dep" "absint" "acct" "cost" "fb"
      "ref" "viol";
    List.iter
      (fun (r : Harness.Job.fuzz) ->
        Printf.printf
          "%-13s %5d %5d %5d %6d %5d %6d %5d %5d %5d %2d/%-2d %7d\n"
          r.Harness.Job.z_profile r.Harness.Job.z_programs
          r.Harness.Job.z_lint_pass r.Harness.Job.z_roundtrip_pass
          r.Harness.Job.z_trace_pass r.Harness.Job.z_dep_pass
          r.Harness.Job.z_absint_pass r.Harness.Job.z_acct_pass
          r.Harness.Job.z_cost_pass r.Harness.Job.z_fb_bound_pass
          r.Harness.Job.z_ref_pass r.Harness.Job.z_ref_checked
          r.Harness.Job.z_violations)
      o.Fuzz.o_records;
    Printf.printf
      "fuzz: %d programs x %d levels (seed %d), %d oracle passes, %d \
       violations, %.1fs\n"
      o.Fuzz.o_programs (List.length levels) seed o.Fuzz.o_checks
      (List.length o.Fuzz.o_violations) o.Fuzz.o_wall_seconds;
    export json ~records:(List.length o.Fuzz.o_records, "fuzz records")
      (fun () -> Harness.Job.to_json ~fuzz:o.Fuzz.o_records []);
    match o.Fuzz.o_violations with
    | [] -> Fuzz.fault_hook := None
    | v :: _ ->
      List.iteri
        (fun i v -> if i < 10 then print_endline (Fuzz.violation_text v))
        o.Fuzz.o_violations;
      let extra = List.length o.Fuzz.o_violations - 10 in
      if extra > 0 then Printf.printf "(+%d more violations)\n" extra;
      (* shrink the first offender and leave a reproducer behind *)
      (match Workloads.Synth.Profile.find v.Fuzz.v_profile with
      | None -> ()
      | Some profile ->
        let prog = Workloads.Synth.generate ~profile ~seed:v.Fuzz.v_seed in
        let prog =
          match !Fuzz.fault_hook with Some f -> f prog | None -> prog
        in
        let fails = Fuzz.fails_oracle cfg ~oracle:v.Fuzz.v_oracle in
        if fails prog then begin
          let small = Fuzz.minimize ~fails prog in
          let name =
            Printf.sprintf "%s-%d-%s" v.Fuzz.v_profile v.Fuzz.v_index
              v.Fuzz.v_oracle
          in
          match Fuzz.dump_reproducer ~dir:out ~name small with
          | Ok path ->
            Printf.printf "reproducer: %s (%d insns, shrunk from %d)\n" path
              (Ir.Prog.static_size small)
              (Ir.Prog.static_size prog)
          | Error msg -> Printf.printf "reproducer dump failed: %s\n" msg
        end
        else
          Printf.printf
            "note: first violation does not reproduce standalone (profile \
             %s, seed %d)\n"
            v.Fuzz.v_profile v.Fuzz.v_seed);
      Fuzz.fault_hook := None;
      exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing over the synthetic corpus: every program \
          through every heuristic level with lint, round-trip, dep/sound, \
          the absint refinement audit, acct/conserve, cost, the fb cost \
          bound and the frozen sim_ref cycle differential as oracles; \
          violations are shrunk to a dumped reproducer and the exit status \
          is non-zero")
    Term.(const run $ seed_arg $ n_arg $ profile_arg
          $ levels_arg Core.Heuristics.extended_levels $ ref_sample_arg
          $ jobs_arg $ out_arg $ json_arg $ inject_arg)

(* --- table1 / figure5 ---------------------------------------------------- *)

let table1_cmd =
  let run entries jobs json =
    let rows = Report.Table1.run ~store ~jobs entries in
    Format.printf "%a@." Report.Table1.pp rows;
    export_results json
  in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate the paper's Table 1")
    Term.(const run $ only_arg $ jobs_arg $ json_arg)

let figure5_cmd =
  let run entries jobs json =
    let rows = Report.Figure5.run ~store ~jobs entries in
    Format.printf "%a@." Report.Figure5.pp rows;
    export_results json
  in
  Cmd.v (Cmd.info "figure5" ~doc:"Regenerate the paper's Figure 5")
    Term.(const run $ only_arg $ jobs_arg $ json_arg)

(* --- bench-time ----------------------------------------------------------- *)

(* Wall-clock the two headline reports so the perf trajectory of the
   simulator core is machine-readable (tools/smoke.sh gates on it).  Each
   section gets a fresh artifact store: the figure is the cold cost of the
   full report, not whatever a previous section left memoized. *)

let bench_time_cmd =
  let out_arg =
    let doc = "Output JSON path." in
    Arg.(value & opt string "BENCH_figure5.json"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  (* same-machine references: the growth-seed core (pre event core) and the
     PR-3 packed-trace core, both measured as `msc figure5` on the
     single-core CI box this file's baseline JSON ships from *)
  let seed_seconds = 60.9 in
  let time_section f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let git_commit () =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with Sys_error _ | Unix.Unix_error _ -> "unknown"
  in
  let run suite jobs out =
    let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
    let table1_s =
      time_section (fun () ->
          let store = Harness.Artifact.create () in
          Format.fprintf null "%a@."
            Report.Table1.pp (Report.Table1.run ~store ~jobs suite))
    in
    let figure5_s =
      time_section (fun () ->
          let store = Harness.Artifact.create () in
          Format.fprintf null "%a@."
            Report.Figure5.pp (Report.Figure5.run ~store ~jobs suite))
    in
    let cost_s =
      time_section (fun () ->
          let store = Harness.Artifact.create () in
          Format.fprintf null "%a@."
            Report.Cost.pp (Report.Cost.run ~store ~jobs suite))
    in
    (* a fixed slice of the synthetic fuzz corpus (4 programs per profile
       through the full oracle stack), so the wall cost of the
       verification path is tracked alongside the reports it guards *)
    let fuzz_n = 44 in
    let fuzz_s =
      time_section (fun () ->
          ignore (Fuzz.run ~jobs { Fuzz.default_config with Fuzz.n = fuzz_n }))
    in
    (* the same figure5 report at full recommended width, so the file
       records the parallel-vs-serial story of the scheduler on this
       machine; on a single-core host the serial figure is reused
       rather than re-measuring an identical configuration *)
    let par_jobs = Domain.recommended_domain_count () in
    let figure5_par_s =
      if par_jobs <= 1 then figure5_s
      else
        time_section (fun () ->
            let store = Harness.Artifact.create () in
            Format.fprintf null "%a@."
              Report.Figure5.pp
              (Report.Figure5.run ~store ~jobs:par_jobs suite))
    in
    let json =
      Harness.Json.Obj
        [
          ("commit", Harness.Json.String (git_commit ()));
          ("jobs", Harness.Json.Int jobs);
          ("workloads", Harness.Json.Int (List.length suite));
          ( "sections",
            Harness.Json.List
              [
                Harness.Json.Obj
                  [
                    ("section", Harness.Json.String "table1");
                    ("seconds", Harness.Json.Float table1_s);
                  ];
                Harness.Json.Obj
                  [
                    ("section", Harness.Json.String "figure5");
                    ("seconds", Harness.Json.Float figure5_s);
                    ("seed_seconds", Harness.Json.Float seed_seconds);
                    ( "speedup_vs_seed",
                      Harness.Json.Float (seed_seconds /. figure5_s) );
                  ];
                Harness.Json.Obj
                  [
                    ("section", Harness.Json.String "cost");
                    ("seconds", Harness.Json.Float cost_s);
                  ];
                Harness.Json.Obj
                  [
                    ("section", Harness.Json.String "fuzz");
                    ("seconds", Harness.Json.Float fuzz_s);
                    ("programs", Harness.Json.Int fuzz_n);
                  ];
                Harness.Json.Obj
                  [
                    ("section", Harness.Json.String "figure5_parallel");
                    ("seconds", Harness.Json.Float figure5_par_s);
                    ("jobs", Harness.Json.Int par_jobs);
                    ( "speedup_vs_serial",
                      Harness.Json.Float (figure5_s /. figure5_par_s) );
                  ];
              ] );
        ]
    in
    write_json out json;
    Printf.printf
      "table1 %.2fs, figure5 %.2fs (%.1fx vs %.1fs seed), cost %.2fs, \
       fuzz[%d] %.2fs, figure5[j=%d] %.2fs (%.2fx vs serial); wrote %s\n"
      table1_s figure5_s (seed_seconds /. figure5_s) seed_seconds cost_s
      fuzz_n fuzz_s par_jobs figure5_par_s (figure5_s /. figure5_par_s) out
  in
  Cmd.v
    (Cmd.info "bench-time"
       ~doc:
         "Wall-clock the table1, figure5 and cost reports plus a fixed \
          fuzz-corpus slice and record the timings (with the speedup over \
          the growth-seed core) as JSON")
    Term.(const run $ only_arg $ jobs_arg $ out_arg)

(* --- daemon / client ------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix domain socket path of the mscd service." in
  Arg.(value & opt string "/tmp/mscd.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc)

let daemon_cmd =
  let run socket jobs =
    let srv =
      try Service.Server.create ~jobs ~socket ()
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "mscd: cannot listen on %s: %s\n" socket
          (Unix.error_message e);
        exit 1
    in
    let stop _ = Service.Server.request_stop srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf "mscd: listening on %s\n%!" socket;
    Service.Server.serve srv;
    (* the drained daemon leaves its request metrics on stderr so a
       supervisor's logs capture the service's lifetime summary *)
    Printf.eprintf "mscd: drained; final stats:\n%s\n%!"
      (Harness.Json.to_string ~indent:true (Service.Server.stats_json srv))
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:
         "Run the persistent mscd simulation service: newline-delimited \
          JSON requests over a Unix domain socket, request-level dedup, \
          shared artifact store, work-stealing execution; SIGTERM drains \
          gracefully")
    Term.(const run $ socket_arg $ jobs_arg)

let client_cmd =
  let op_arg =
    let doc =
      "Operation: simulate, partition, deps, absint, cost, breakdown, \
       lint, fuzz, stats or shutdown."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let workload_arg =
    let doc = "Workload name (required by per-workload operations)." in
    Arg.(value & opt (some workload_conv) None
         & info [ "w"; "workload" ] ~docv:"NAME" ~doc)
  in
  let level_arg =
    some_level "Heuristic level (required by per-workload operations)."
  in
  let seed_opt_arg =
    let doc = "Corpus seed (fuzz operation)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let n_opt_arg =
    let doc = "Corpus size (fuzz operation; the server clamps it)." in
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc)
  in
  let profile_opt_arg =
    let doc = "Corpus profile name (fuzz operation; default: all)." in
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"NAME" ~doc)
  in
  let run socket op workload level pus in_order seed n profile =
    let fields =
      [ ("op", Harness.Json.String op) ]
      @ (match workload with
        | Some e ->
          [ ("workload", Harness.Json.String e.Workloads.Registry.name) ]
        | None -> [])
      @ (match level with
        | Some l ->
          [ ("level", Harness.Json.String (Core.Heuristics.level_tag l)) ]
        | None -> [])
      @ (match seed with
        | Some s -> [ ("seed", Harness.Json.Int s) ]
        | None -> [])
      @ (match n with
        | Some n -> [ ("n", Harness.Json.Int n) ]
        | None -> [])
      @ (match profile with
        | Some p -> [ ("profile", Harness.Json.String p) ]
        | None -> [])
      @ [
          ("num_pus", Harness.Json.Int pus);
          ("in_order", Harness.Json.Bool in_order);
        ]
    in
    match
      Service.Protocol.parse_request
        (Harness.Json.to_string ~indent:false (Harness.Json.Obj fields))
    with
    | Error msg ->
      Printf.eprintf "msc client: %s\n" msg;
      exit 2
    | Ok { Service.Protocol.op; _ } -> (
      let c =
        try Service.Client.connect ~socket
        with Unix.Unix_error (e, _, _) ->
          Printf.eprintf "msc client: cannot connect to %s: %s\n" socket
            (Unix.error_message e);
          exit 1
      in
      let r = Service.Client.request c op in
      Service.Client.close c;
      match r with
      | Ok json -> print_endline (Harness.Json.to_string ~indent:true json)
      | Error msg ->
        Printf.eprintf "msc client: %s\n" msg;
        exit 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running mscd service and print the response")
    Term.(const run $ socket_arg $ op_arg $ workload_arg $ level_arg
          $ pus_arg $ in_order_arg $ seed_opt_arg $ n_opt_arg
          $ profile_opt_arg)

let main =
  let info =
    Cmd.info "msc"
      ~doc:"Multiscalar task selection (Sohi & Vijaykumar, MICRO-31) reproduction"
  in
  Cmd.group info
    [
      list_cmd; run_cmd; breakdown_cmd; dump_cmd; lint_cmd; deps_cmd;
      absint_cmd; cost_cmd; trace_stats_cmd; fuzz_cmd; table1_cmd;
      figure5_cmd;
      bench_time_cmd; run_file_cmd;
      export_cmd; dot_cmd; superscalar_cmd; timeline_cmd;
      daemon_cmd; client_cmd;
    ]

let () = exit (Cmd.eval main)
