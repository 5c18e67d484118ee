(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section over the synthetic SPEC95 suite, plus the repo's own
   verification reports.  Per-layer timing lives in perfbench/.

   All sections run through the unified experiment engine (lib/harness):
   one shared artifact store memoizes the expensive pipeline per
   (workload, heuristic level) — built program, partition plan, dynamic
   trace — so each pipeline is computed exactly once per bench run no
   matter how many sections need it, and the independent jobs fan out
   across a domain pool (HARNESS_JOBS=1 forces serial).  Every simulation
   on the default machine is recorded and exported to bench/results.json,
   making the perf trajectory machine-readable.

   Sections:
     table1   - paper's Table 1 (task size, control transfers, prediction,
                window span for bb/cf/dd tasks on 8 PUs)
     figure5  - paper's Figure 5 (IPC of bb/cf/dd/ts tasks on 4/8 PUs,
                out-of-order and in-order)
     summary  - the headline claims, aggregated (int vs fp gains)
     ablation - design-choice studies DESIGN.md calls out: counted vs generic
                unrolling, release-point forwarding, synchronization table
     lint     - static verification of every plan (all workloads x all
                levels), exported to bench/lint.json for cross-commit diffs
     account  - cycle attribution to the paper's Section-2 performance
                issues over the full grid, exported to bench/account.json;
                exits non-zero if any record violates conservation
     deps     - static cross-task dependence edges (Core.Depend) grounded
                against the observed trace flows, exported to
                bench/deps.json; exits non-zero on any soundness violation
     cost     - predicted cycle-account shares (Analysis.Cost) vs measured,
                all levels + fb, exported to bench/cost.json; exits non-zero
                if fb loses to ts on geomean IPC or the predicted data_wait
                share stops tracking the measured one (r < +0.5)
     fuzz     - differential fuzzing over the synthetic corpus (seed 42,
                200 programs through every level with lint/roundtrip/dep/
                acct/cost/fb-bound/sim_ref as oracles), exported to
                bench/fuzz.json; exits non-zero on any violation

   Run with: dune exec bench/main.exe            (all sections)
             dune exec bench/main.exe -- table1  (one section)
   An unknown section name is an error (exit 2). *)

let line () = print_endline (String.make 78 '=')

(* One artifact store shared by every section of this run. *)
let store = Harness.Artifact.create ()

(* Section exports land in bench/ when run from the repo root. *)
let out_path name =
  if Sys.file_exists "bench" && Sys.is_directory "bench" then
    Filename.concat "bench" name
  else name

let dd_artifact entry =
  Harness.Artifact.get store ~level:Core.Heuristics.Data_dependence entry

(* --- table 1 ------------------------------------------------------------- *)

let run_table1 () =
  line ();
  print_endline "TABLE 1 — task characteristics (8 PUs, out-of-order PUs)";
  print_endline
    "paper reference: int bb tasks < 10 insns, fp bb tasks larger; cf/dd\n\
     tasks several times larger; dd spans int 45-140 / fp 250-800; bb spans\n\
     considerably smaller.";
  line ();
  let rows = Report.Table1.run ~store Workloads.Suite.all in
  Format.printf "%a@." Report.Table1.pp rows

(* --- figure 5 ------------------------------------------------------------ *)

let run_figure5 () =
  line ();
  print_endline
    "FIGURE 5 — IPC by heuristic (bb / cf / dd / ts) and configuration";
  print_endline
    "paper reference: cf gains 23-54% over bb (int, ooo); dd adds <1-15%;\n\
     fp gains larger than int; in-order PUs benefit more from dd; only\n\
     compress and fpppp respond to the task-size heuristic.";
  line ();
  let rows = Report.Figure5.run ~store Workloads.Suite.all in
  Format.printf "%a@." Report.Figure5.pp rows

(* --- aggregate summary ---------------------------------------------------- *)

let run_summary () =
  line ();
  print_endline "SUMMARY — geometric-mean IPC gains over basic-block tasks";
  line ();
  (* every row is served from the artifact store: when figure5 already ran
     this is pure cache hits, standalone it computes the grid once *)
  let rows = Report.Figure5.run ~store Workloads.Suite.all in
  let by_kind kind = List.filter (fun r -> r.Report.Figure5.kind = kind) rows in
  List.iteri
    (fun ci cname ->
      Printf.printf "\n-- %s --\n" cname;
      List.iter
        (fun (kname, kind) ->
          let rs = by_kind kind in
          let gain li =
            Harness.Stat.geomean
              (List.map
                 (fun r ->
                   r.Report.Figure5.ipc.(li).(ci)
                   /. max 1e-9 r.Report.Figure5.ipc.(0).(ci))
                 rs)
          in
          Printf.printf "%-4s: cf %+.1f%%  dd %+.1f%%  ts %+.1f%%\n" kname
            (100.0 *. (gain 1 -. 1.0))
            (100.0 *. (gain 2 -. 1.0))
            (100.0 *. (gain 3 -. 1.0)))
        [ ("int", `Int); ("fp", `Fp) ])
    Report.Figure5.config_names

(* --- superscalar comparison (paper 4.3.4) ---------------------------------- *)

(* "the amount of parallelism exposed through branch prediction is
   significantly less than that exposed by task-level speculation": compare
   a 4-wide, 64-entry-window superscalar's average window occupancy against
   the Multiscalar window span of data-dependence tasks on 8 PUs. *)
let run_superscalar () =
  line ();
  print_endline
    "SUPERSCALAR vs MULTISCALAR WINDOW (paper 4.3.4): avg superscalar window
     occupancy (4-wide, ROB 64) vs 8-PU multiscalar window span (dd tasks)";
  line ();
  Printf.printf "%-10s %10s %10s %12s %12s
" "bench" "ss IPC" "ms IPC"
    "ss window" "ms span";
  let rows =
    Harness.Pool.map
      (fun entry ->
        let art = dd_artifact entry in
        let ss_cfg =
          {
            (Sim.Config.default ~num_pus:1 ~in_order:false) with
            Sim.Config.issue_width = 4;
            rob_size = 64;
            iq_size = 32;
            fu_int = 4;
            fu_fp = 2;
            fu_mem = 2;
            fu_branch = 2;
          }
        in
        let ss = Sim.Superscalar.run ss_cfg art.Harness.Artifact.trace in
        (* the multiscalar side is the same (dd, 8PU, ooo) job figure5 runs:
           served from the store's simulation cache *)
        let ms = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
        (entry.Workloads.Registry.name, ss, ms))
      Workloads.Suite.all
  in
  List.iter
    (fun (name, ss, ms) ->
      Printf.printf "%-10s %10.2f %10.2f %12.1f %12.1f
"
        name
        (Sim.Stats.ipc ss.Sim.Superscalar.stats)
        (Sim.Stats.ipc ms)
        ss.Sim.Superscalar.avg_window
        (Sim.Stats.measured_window_span ms))
    rows

(* --- ablations ------------------------------------------------------------ *)

(* 1. counted-unrolling with induction coalescing vs plain replication:
      simulate su2cor at task-size level with the coalescing path disabled
      by setting max_targets so low that the counted path cannot run. *)
let run_ablation () =
  line ();
  print_endline "ABLATIONS";
  line ();
  let base_cfg = Sim.Config.default ~num_pus:8 ~in_order:false in
  let custom_sim cfg (art : Harness.Artifact.artifact) =
    (Sim.Engine.run_with_trace cfg art.Harness.Artifact.plan
       art.Harness.Artifact.trace)
      .Sim.Engine.stats
  in
  (* a) synchronization table: disable it and count violations *)
  let entry = Workloads.Suite.find "applu" in
  let art =
    Harness.Artifact.get store ~level:Core.Heuristics.Control_flow entry
  in
  let no_sync = { base_cfg with Sim.Config.sync_table_size = 0 } in
  let with_tbl = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
  let without = custom_sim no_sync art in
  Printf.printf
    "sync table (applu, cf, 8PU): with table IPC %.2f (%d violations), \
     without IPC %.2f (%d violations)\n"
    (Sim.Stats.ipc with_tbl) with_tbl.Sim.Stats.violations
    (Sim.Stats.ipc without) without.Sim.Stats.violations;
  (* b) number of hardware targets N: sweep 2 / 4 / 8 on go *)
  let entry = Workloads.Suite.find "go" in
  List.iter
    (fun n ->
      let params = { Core.Heuristics.default with Core.Heuristics.max_targets = n } in
      let art =
        Harness.Artifact.get store ~params ~level:Core.Heuristics.Control_flow
          entry
      in
      let s = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
      Printf.printf
        "target limit N=%d (go, cf, 8PU): IPC %.2f, task size %.1f, task \
         mispredict %.1f%%\n"
        n (Sim.Stats.ipc s) (Sim.Stats.avg_task_size s)
        (Sim.Stats.task_mispredict_rate s))
    [ 2; 4; 8 ];
  (* c) predication extension: if-convert the branchy kernels *)
  List.iter
    (fun name ->
      let entry = Workloads.Suite.find name in
      let base =
        Harness.Artifact.sim store (dd_artifact entry) ~num_pus:8
          ~in_order:false
      in
      let conv_art =
        Harness.Artifact.get store
          ~variant:{ Harness.Artifact.base_variant with if_convert = true }
          ~level:Core.Heuristics.Data_dependence entry
      in
      let conv = Harness.Artifact.sim store conv_art ~num_pus:8 ~in_order:false in
      Printf.printf
        "if-conversion (%s, dd, 8PU): IPC %.2f -> %.2f, intra-task branch          mispredicts %d -> %d
"
        name (Sim.Stats.ipc base) (Sim.Stats.ipc conv)
        base.Sim.Stats.intra_branch_mispredicts
        conv.Sim.Stats.intra_branch_mispredicts)
    [ "go"; "hydro2d"; "wave5" ];
  (* d) path-based vs bimodal inter-task prediction (Jacobson et al.) *)
  List.iter
    (fun name ->
      let entry = Workloads.Suite.find name in
      let art = dd_artifact entry in
      let path = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
      let bimodal_cfg = { base_cfg with Sim.Config.task_path_history = false } in
      let bim = custom_sim bimodal_cfg art in
      Printf.printf
        "task predictor (%s, dd, 8PU): path-based %.1f%% mispredict / IPC          %.2f, bimodal %.1f%% / IPC %.2f
"
        name
        (Sim.Stats.task_mispredict_rate path)
        (Sim.Stats.ipc path)
        (Sim.Stats.task_mispredict_rate bim)
        (Sim.Stats.ipc bim))
    [ "go"; "compress" ];
  (* e) interleaved D-cache/ARB banks: 1 vs N (the paper interleaves "as
        many banks as the number of PUs") *)
  let art = dd_artifact (Workloads.Suite.find "tomcatv") in
  List.iter
    (fun banks ->
      let cfg = { base_cfg with Sim.Config.l1_banks = banks } in
      let s = custom_sim cfg art in
      Printf.printf "L1/ARB banks=%d (tomcatv, dd, 8PU): IPC %.2f
" banks
        (Sim.Stats.ipc s))
    [ 1; 4; 8 ];
  (* f) classical -O2-style optimisation before task selection *)
  List.iter
    (fun name ->
      let entry = Workloads.Suite.find name in
      let base =
        Harness.Artifact.sim store (dd_artifact entry) ~num_pus:8
          ~in_order:false
      in
      let opt_art =
        Harness.Artifact.get store
          ~variant:{ Harness.Artifact.base_variant with optimize = true }
          ~level:Core.Heuristics.Data_dependence entry
      in
      let optd = Harness.Artifact.sim store opt_art ~num_pus:8 ~in_order:false in
      Printf.printf
        "optimizer (%s, dd, 8PU): cycles %d -> %d, dyn insns %d -> %d (IPC \
         alone misleads when instructions disappear)\n"
        name base.Sim.Stats.cycles optd.Sim.Stats.cycles
        base.Sim.Stats.dyn_insns optd.Sim.Stats.dyn_insns)
    [ "go"; "vortex" ];
  (* g) LOOP_THRESH sweep on compress (the benchmark the paper says responds) *)
  let entry = Workloads.Suite.find "compress" in
  List.iter
    (fun thresh ->
      let params = { Core.Heuristics.default with Core.Heuristics.loop_thresh = thresh } in
      let art =
        Harness.Artifact.get store ~params ~level:Core.Heuristics.Task_size
          entry
      in
      let s = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
      Printf.printf
        "LOOP_THRESH=%d (compress, ts, 8PU): IPC %.2f, task size %.1f\n"
        thresh (Sim.Stats.ipc s) (Sim.Stats.avg_task_size s))
    [ 1; 30; 60 ]

(* --- cross-input profile robustness ----------------------------------------- *)

(* The paper profiles with the evaluation inputs.  How much does that
   matter?  Select tasks using profiles from an ALTERNATIVE input and
   evaluate on the reference input: profile-robust heuristics should lose
   almost nothing. *)
let run_crossinput () =
  line ();
  print_endline
    "CROSS-INPUT PROFILING — dd/ts tasks selected with profiles from an
     alternative input, evaluated on the reference input (8 PUs, ooo)";
  line ();
  Printf.printf "%-10s %-6s %12s %12s %8s
" "bench" "level" "self-profile"
    "cross-profile" "delta";
  List.iter
    (fun name ->
      let entry = Workloads.Suite.find name in
      List.iter
        (fun (lname, level) ->
          let self_art = Harness.Artifact.get store ~level entry in
          let self =
            Sim.Stats.ipc
              (Harness.Artifact.sim store self_art ~num_pus:8 ~in_order:false)
          in
          let cross_art =
            Harness.Artifact.get store ~profile_alt:true ~level entry
          in
          let cross =
            Sim.Stats.ipc
              (Harness.Artifact.sim store cross_art ~num_pus:8 ~in_order:false)
          in
          Printf.printf "%-10s %-6s %12.2f %12.2f %+7.1f%%
" name lname self
            cross
            (100.0 *. (cross -. self) /. self))
        [ ("dd", Core.Heuristics.Data_dependence);
          ("ts", Core.Heuristics.Task_size) ])
    [ "compress"; "go"; "perl"; "su2cor" ]

(* --- lint ------------------------------------------------------------------ *)

(* Lint every plan of the evaluation grid and export the rule counts: a
   commit that changes a transform or heuristic shows up as a diff in
   bench/lint.json long before it shows up as a wrong IPC. *)
let run_lint () =
  line ();
  print_endline
    "LINT — static verification of every plan (all workloads x all levels)";
  line ();
  let reports = Lint.check_suite ~store Workloads.Suite.all in
  let errors = Lint.total_errors reports in
  let count sev =
    List.fold_left
      (fun acc (r : Lint.report) -> acc + Lint.Diag.count sev r.Lint.diags)
      0 reports
  in
  Printf.printf "%d plans: %d errors, %d warnings, %d infos\n"
    (List.length reports) errors
    (count Lint.Diag.Warning)
    (count Lint.Diag.Info);
  List.iter
    (fun (r : Lint.report) ->
      List.iter
        (fun d -> Format.printf "%a@." Lint.Diag.pp d)
        (Lint.Diag.errors r.Lint.diags))
    reports;
  let path = out_path "lint.json" in
  Harness.Json.to_file path (Lint.report_to_json reports);
  Printf.printf "wrote %s\n" path

(* --- cycle accounting ------------------------------------------------------ *)

(* Attribute every PU-cycle of the evaluation grid to the paper's §2
   performance issues and export the records; the conservation invariant
   (categories sum to PUs x cycles, exactly) gates the section, so a smoke
   run fails the moment any attribution path leaks or double-counts. *)
let run_account () =
  line ();
  print_endline
    "ACCOUNT — cycle attribution to the paper's performance issues\n\
     (all workloads x all levels x 1/2/4/8 PUs, out-of-order)";
  line ();
  let rows = Report.Breakdown.run ~store Workloads.Suite.all in
  Format.printf "%a@." Report.Breakdown.pp_aggregate rows;
  let accounts = Report.Breakdown.accounts rows in
  let bad =
    List.filter (fun a -> not (Harness.Job.conserved a)) accounts
  in
  let path = out_path "account.json" in
  Harness.Json.to_file path (Report.Breakdown.to_json rows);
  Printf.printf "wrote %s (%d breakdown records)\n" path
    (List.length accounts);
  if bad <> [] then begin
    List.iter
      (fun (a : Harness.Job.account) ->
        match Sim.Account.check a.Harness.Job.a_acct with
        | Error msg ->
          Printf.printf "CONSERVATION VIOLATION: %s %s %dPU %s: %s\n"
            a.Harness.Job.a_spec.Harness.Job.workload
            (Core.Heuristics.level_name a.Harness.Job.a_spec.Harness.Job.level)
            a.Harness.Job.a_spec.Harness.Job.num_pus
            (if a.Harness.Job.a_spec.Harness.Job.in_order then "in-order"
             else "out-of-order")
            msg
        | Ok () -> ())
      bad;
    exit 1
  end;
  Printf.printf "conservation: %d/%d records exact\n" (List.length accounts)
    (List.length accounts)

(* --- static dependences ----------------------------------------------------- *)

(* Static cross-task dependence edges per plan, grounded against the
   dynamic trace: every observed cross-instance store->load flow must be
   statically predicted (the dep/sound contract).  A violation here means
   the Analysis.Memdep over-approximation has a hole, so the section exits
   non-zero just like a conservation leak in the account section. *)
let run_deps () =
  line ();
  print_endline
    "DEPS — static cross-task dependence edges vs observed trace flows\n\
     (all workloads x all levels; penalties on the 8-PU out-of-order machine)";
  line ();
  let rows = Report.Deps.run ~store Workloads.Suite.all in
  Format.printf "%a@." Report.Deps.pp rows;
  let path = out_path "deps.json" in
  Harness.Json.to_file path (Report.Deps.to_json rows);
  Printf.printf "wrote %s (%d dependence summaries)\n" path (List.length rows);
  let violations = Report.Deps.violations rows in
  if violations > 0 then begin
    Printf.printf
      "SOUNDNESS VIOLATION: %d observed dependences not statically predicted\n"
      violations;
    exit 1
  end;
  Printf.printf "soundness: every observed dependence predicted\n"

(* --- flow-sensitive refinement precision ------------------------------------ *)

(* The Analysis.Absint payoff table, with the acceptance gate of the
   refinement: suite-wide, the refined analysis must predict strictly
   fewer cross-task memory edges than the flow-insensitive baseline it is
   bounded by.  Per-row [ab <= fi] is already a lint invariant
   (absint/refines); this gate is about the aggregate actually moving. *)
let run_absint () =
  line ();
  print_endline
    "ABSINT — flow-sensitive refinement precision vs flow-insensitive\n\
     baseline (all workloads x all levels)";
  line ();
  let rows = Report.Precision.run ~store Workloads.Suite.all in
  Format.printf "%a@." Report.Precision.pp rows;
  let path = out_path "absint.json" in
  Harness.Json.to_file path (Report.Precision.to_json rows);
  Printf.printf "wrote %s (%d precision rows)\n" path (List.length rows);
  let fi, ab = Report.Precision.totals rows in
  if ab >= fi then begin
    Printf.printf
      "PRECISION REGRESSION: refined mem edges (%d) not below the \
       flow-insensitive baseline (%d)\n"
      ab fi;
    exit 1
  end;
  Printf.printf "precision: %d -> %d suite-wide mem edges (%d pruned)\n" fi ab
    (fi - ab)

(* --- static cost model ------------------------------------------------------ *)

(* Predicted cycle-account shares per plan against the measured Sim.Account
   shares, plus the payoff of trusting the model: the fb level must beat
   its ts seed on geomean IPC, and the predicted data_wait share must
   positively track the measured one at every profile-driven level.  Both
   are hard gates — a silent model regression would turn the fb level into
   noise while every per-plan lint check still passes. *)
let run_cost () =
  line ();
  print_endline
    "COST — predicted cycle-account shares vs measured (Analysis.Cost)\n\
     (all workloads x all levels + fb; measured on the 8-PU out-of-order\n\
     machine)";
  line ();
  let rows = Report.Cost.run ~store Workloads.Suite.all in
  Format.printf "%a@." Report.Cost.pp rows;
  let path = out_path "cost.json" in
  Harness.Json.to_file path (Report.Cost.to_json rows);
  Printf.printf "wrote %s (%d cost rows)\n" path (List.length rows);
  let geo = Report.Cost.geomean_ipc rows in
  let geo_of level =
    List.find_map
      (fun (l, _, g) -> if l = level then Some g else None)
      geo
  in
  (match (geo_of Core.Heuristics.Feedback, geo_of Core.Heuristics.Task_size) with
  | Some fb, Some ts when fb > ts ->
    Printf.printf "feedback gate: fb geomean %.3f > ts geomean %.3f\n" fb ts
  | Some fb, Some ts ->
    Printf.printf
      "FEEDBACK REGRESSION: fb geomean %.3f <= ts geomean %.3f\n" fb ts;
    exit 1
  | _ ->
    print_endline "FEEDBACK REGRESSION: missing fb or ts geomean row";
    exit 1);
  let corr = Report.Cost.correlation rows in
  List.iter
    (fun level ->
      match
        List.find_map
          (fun (l, c, _, p) ->
            if l = level && c = "data_wait" then Some p else None)
          corr
      with
      | Some p when p >= 0.5 ->
        Printf.printf "correlation gate: %s data_wait r %+.3f >= +0.5\n"
          (Core.Heuristics.level_name level)
          p
      | Some p ->
        Printf.printf "MODEL REGRESSION: %s data_wait r %+.3f < +0.5\n"
          (Core.Heuristics.level_name level)
          p;
        exit 1
      | None ->
        Printf.printf "MODEL REGRESSION: no data_wait correlation at %s\n"
          (Core.Heuristics.level_name level);
        exit 1)
    [
      Core.Heuristics.Control_flow; Core.Heuristics.Data_dependence;
      Core.Heuristics.Task_size;
    ]

(* --- fuzz ------------------------------------------------------------------ *)

(* The synthetic corpus through the full oracle stack: the section that
   holds the verification layers themselves to account.  Any violation is
   a hard failure, same as a conservation leak. *)
let run_fuzz () =
  line ();
  print_endline
    "FUZZ — differential fuzzing over the synthetic corpus\n\
     (200 programs x all profiles x all levels; lint, round-trip, dep,\n\
     acct, cost, fb-bound and sim_ref cycle differential as oracles)";
  line ();
  let cfg = { Fuzz.default_config with Fuzz.seed = 42; n = 200 } in
  let o = Fuzz.run cfg in
  Printf.printf "%-13s %6s %6s %6s %6s %6s %9s\n" "profile" "progs" "funcs"
    "blocks" "insns" "ref" "violations";
  List.iter2
    (fun (name, (s : Fuzz.shape)) (r : Harness.Job.fuzz) ->
      Printf.printf "%-13s %6d %6d %6d %6d %3d/%-3d %9d\n" name
        s.Fuzz.s_programs s.Fuzz.s_funcs s.Fuzz.s_blocks s.Fuzz.s_insns
        r.Harness.Job.z_ref_pass r.Harness.Job.z_ref_checked
        r.Harness.Job.z_violations)
    o.Fuzz.o_shapes o.Fuzz.o_records;
  let path = out_path "fuzz.json" in
  Harness.Job.export ~path ~fuzz:o.Fuzz.o_records [];
  Printf.printf "wrote %s (%d fuzz records)\n" path
    (List.length o.Fuzz.o_records);
  Printf.printf "fuzz: %d programs, %d oracle passes, %d violations, %.1fs\n"
    o.Fuzz.o_programs o.Fuzz.o_checks
    (List.length o.Fuzz.o_violations)
    o.Fuzz.o_wall_seconds;
  if o.Fuzz.o_violations <> [] then begin
    List.iteri
      (fun i v ->
        if i < 10 then
          Printf.printf "FUZZ VIOLATION: %s\n" (Fuzz.violation_text v))
      o.Fuzz.o_violations;
    exit 1
  end

(* --- results export -------------------------------------------------------- *)

let export_results () =
  let results = Harness.Job.results_of_store store in
  if results <> [] then begin
    let path = out_path "results.json" in
    Harness.Job.export ~path results;
    Printf.printf "wrote %s (%d job results, %d pipeline builds)\n" path
      (List.length results)
      (Harness.Artifact.builds store)
  end

(* In run order; argv selects a subset, the default is all of them. *)
let sections =
  [
    ("table1", run_table1); ("figure5", run_figure5); ("summary", run_summary);
    ("superscalar", run_superscalar); ("ablation", run_ablation);
    ("crossinput", run_crossinput); ("lint", run_lint);
    ("account", run_account); ("deps", run_deps); ("absint", run_absint);
    ("cost", run_cost); ("fuzz", run_fuzz);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  (match List.filter (fun n -> not (List.mem_assoc n sections)) requested with
  | [] -> ()
  | unknown ->
    Printf.eprintf "bench: unknown section(s): %s\nvalid sections: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst sections));
    exit 2);
  List.iter
    (fun (name, run) -> if List.mem name requested then run ())
    sections;
  line ();
  export_results ();
  print_endline "bench complete."
