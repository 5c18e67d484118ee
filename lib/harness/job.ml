type spec = {
  workload : string;
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
  task_size : float;
  ct_per_task : float;
  task_mispredict : float;
  window_span : float;
}

let specs_for ?(levels = Core.Heuristics.all_levels)
    ?(configs = [ (8, false) ]) workloads =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun level ->
          List.map
            (fun (num_pus, in_order) -> { workload; level; num_pus; in_order })
            configs)
        levels)
    workloads

let result_of_stats spec ~kind (s : Sim.Stats.t) =
  {
    spec;
    kind;
    ipc = Sim.Stats.ipc s;
    cycles = s.Sim.Stats.cycles;
    dyn_insns = s.Sim.Stats.dyn_insns;
    tasks = s.Sim.Stats.tasks;
    task_size = Sim.Stats.avg_task_size s;
    ct_per_task = Sim.Stats.avg_ct_per_task s;
    task_mispredict = Sim.Stats.task_mispredict_rate s;
    window_span = Sim.Stats.measured_window_span s;
  }

let run ?jobs store specs =
  Pool.map ?jobs
    (fun spec ->
      let entry = Workloads.Suite.find spec.workload in
      let art = Artifact.get store ~level:spec.level entry in
      let stats =
        Artifact.sim store art ~num_pus:spec.num_pus ~in_order:spec.in_order
      in
      result_of_stats spec ~kind:art.Artifact.kind stats)
    specs

let results_of_store store =
  List.filter_map
    (fun ((key : Artifact.key), (num_pus, in_order), stats) ->
      if
        key.Artifact.params = Core.Heuristics.default
        && (not key.Artifact.profile_alt)
        && key.Artifact.variant = Artifact.base_variant
      then
        let spec =
          { workload = key.Artifact.workload; level = key.Artifact.level;
            num_pus; in_order }
        in
        let kind = (Workloads.Suite.find spec.workload).Workloads.Registry.kind in
        Some (result_of_stats spec ~kind stats)
      else None)
    (Artifact.sim_results store)

(* --- cycle-accounting breakdowns ------------------------------------------- *)

type account = {
  a_spec : spec;
  a_kind : Workloads.Registry.kind;
  a_acct : Sim.Account.t;
}

let account_of_stats spec ~kind (s : Sim.Stats.t) =
  { a_spec = spec; a_kind = kind; a_acct = s.Sim.Stats.acct }

let conserved a =
  match Sim.Account.check a.a_acct with Ok () -> true | Error _ -> false

(* --- static dependence summaries ------------------------------------------- *)

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
  d_tasks : int;
  d_reg_edges : int;
  d_mem_edges : int;
  d_fi_mem_edges : int;
  d_store_sites : int;
  d_load_sites : int;
  d_unbounded_sites : int;
  d_fi_unbounded_sites : int;
  d_widest : wide_site list;
  d_observed : int;
  d_predicted_hit : int;
  d_dyn_flows : int;
}

let widest_n = 5

(* Widest refined sites first; unbounded regions (width -1) outrank any
   finite count, ties broken by site identity for determinism. *)
let wide_compare a b =
  let rank w = if w.w_width < 0 then max_int else w.w_width in
  match compare (rank b) (rank a) with
  | 0 -> compare (a.w_fn, a.w_blk, a.w_idx) (b.w_fn, b.w_blk, b.w_idx)
  | c -> c

let precision_of_summary prog summary =
  let unbounded = ref 0 and fi_unbounded = ref 0 and wides = ref [] in
  List.iter
    (fun fname ->
      List.iter2
        (fun (s : Analysis.Memdep.site) (f : Analysis.Memdep.site) ->
          (match Analysis.Memdep.width f.Analysis.Memdep.region with
          | None -> incr fi_unbounded
          | Some _ -> ());
          let w =
            match Analysis.Memdep.width s.Analysis.Memdep.region with
            | None ->
              incr unbounded;
              -1
            | Some w -> w
          in
          wides :=
            {
              w_fn = fname;
              w_blk = s.Analysis.Memdep.blk;
              w_idx = s.Analysis.Memdep.idx;
              w_store = s.Analysis.Memdep.store;
              w_width = w;
            }
            :: !wides)
        (Analysis.Memdep.sites summary fname)
        (Analysis.Memdep.fi_sites summary fname))
    (Ir.Prog.func_names prog);
  let widest =
    List.filteri
      (fun i _ -> i < widest_n)
      (List.sort wide_compare !wides)
  in
  (!unbounded, !fi_unbounded, widest)

let dep_of_artifact (art : Artifact.artifact) =
  let plan = art.Artifact.plan and trace = art.Artifact.trace in
  let dep = Core.Depend.analyze plan in
  let summary = Core.Depend.summary dep in
  let fi_dep = Core.Depend.analyze ~fi:true ~summary plan in
  let unbounded, fi_unbounded, widest =
    precision_of_summary plan.Core.Partition.prog summary
  in
  let parts =
    Array.map
      (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
      trace.Interp.Trace.fnames
  in
  let instances = Sim.Dyntask.chop trace ~parts in
  let observed = Sim.Memflow.observed trace ~instances in
  let fnames = trace.Interp.Trace.fnames in
  let hits, flows =
    List.fold_left
      (fun (hits, flows) (o : Sim.Memflow.edge) ->
        let src =
          { Core.Depend.fn = fnames.(o.Sim.Memflow.src_fid);
            task = o.Sim.Memflow.src_task }
        and dst =
          { Core.Depend.fn = fnames.(o.Sim.Memflow.dst_fid);
            task = o.Sim.Memflow.dst_task }
        in
        ( (if Core.Depend.predicts_mem dep ~src ~dst then hits + 1 else hits),
          flows + o.Sim.Memflow.count ))
      (0, 0) observed
  in
  {
    d_workload = art.Artifact.key.Artifact.workload;
    d_kind = art.Artifact.kind;
    d_level = art.Artifact.key.Artifact.level;
    d_tasks = Core.Depend.num_tasks dep;
    d_reg_edges = List.length (Core.Depend.reg_edges dep);
    d_mem_edges = List.length (Core.Depend.mem_edges dep);
    d_fi_mem_edges = List.length (Core.Depend.mem_edges fi_dep);
    d_store_sites = Core.Depend.num_store_sites dep;
    d_load_sites = Core.Depend.num_load_sites dep;
    d_unbounded_sites = unbounded;
    d_fi_unbounded_sites = fi_unbounded;
    d_widest = widest;
    d_observed = List.length observed;
    d_predicted_hit = hits;
    d_dyn_flows = flows;
  }

let dep_violations d = d.d_observed - d.d_predicted_hit

(* --- static cost predictions ----------------------------------------------- *)

type cost = {
  co_workload : string;
  co_kind : Workloads.Registry.kind;
  co_level : Core.Heuristics.level;
  co_tasks : int;
  co_scalar : float;
  co_pred : Analysis.Cost.shares;
}

let cost_of_artifact (art : Artifact.artifact) =
  let plan = art.Artifact.plan in
  let r = Core.Cost.plan_cost plan in
  let tasks =
    Ir.Prog.Smap.fold
      (fun _ (p : Core.Task.partition) acc ->
        acc + Array.length p.Core.Task.tasks)
      plan.Core.Partition.parts 0
  in
  {
    co_workload = art.Artifact.key.Artifact.workload;
    co_kind = art.Artifact.kind;
    co_level = art.Artifact.key.Artifact.level;
    co_tasks = tasks;
    co_scalar = r.Core.Cost.r_scalar;
    co_pred = r.Core.Cost.r_shares;
  }

(* --- JSON ----------------------------------------------------------------- *)

let result_to_json r =
  Json.Obj
    [
      ("workload", Json.String r.spec.workload);
      ("kind", Json.String (Workloads.Registry.kind_name r.kind));
      ("level", Json.String (Core.Heuristics.level_tag r.spec.level));
      ("num_pus", Json.Int r.spec.num_pus);
      ("in_order", Json.Bool r.spec.in_order);
      ("ipc", Json.Float r.ipc);
      ("cycles", Json.Int r.cycles);
      ("dyn_insns", Json.Int r.dyn_insns);
      ("tasks", Json.Int r.tasks);
      ("task_size", Json.Float r.task_size);
      ("ct_per_task", Json.Float r.ct_per_task);
      ("task_mispredict", Json.Float r.task_mispredict);
      ("window_span", Json.Float r.window_span);
    ]

(* Integer-only on purpose: percentages are derived by readers, so the
   golden-snapshot diffs in test/golden/ never chase float formatting. *)
let account_to_json a =
  let acct = a.a_acct in
  Json.Obj
    ([
       ("workload", Json.String a.a_spec.workload);
       ("kind", Json.String (Workloads.Registry.kind_name a.a_kind));
       ("level", Json.String (Core.Heuristics.level_tag a.a_spec.level));
       ("num_pus", Json.Int a.a_spec.num_pus);
       ("in_order", Json.Bool a.a_spec.in_order);
       ("cycles", Json.Int acct.Sim.Account.cycles);
       ("budget", Json.Int (Sim.Account.budget acct));
     ]
    @ List.map
        (fun c -> (Sim.Account.name c, Json.Int (Sim.Account.get acct c)))
        Sim.Account.all)

(* Integer-only like accounts: precision ratios are derived by readers. *)
let dep_to_json d =
  Json.Obj
    [
      ("workload", Json.String d.d_workload);
      ("kind", Json.String (Workloads.Registry.kind_name d.d_kind));
      ("level", Json.String (Core.Heuristics.level_tag d.d_level));
      ("tasks", Json.Int d.d_tasks);
      ("reg_edges", Json.Int d.d_reg_edges);
      ("mem_edges", Json.Int d.d_mem_edges);
      ("fi_mem_edges", Json.Int d.d_fi_mem_edges);
      ("store_sites", Json.Int d.d_store_sites);
      ("load_sites", Json.Int d.d_load_sites);
      ("unbounded_sites", Json.Int d.d_unbounded_sites);
      ("fi_unbounded_sites", Json.Int d.d_fi_unbounded_sites);
      ( "widest",
        Json.List
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("fn", Json.String w.w_fn);
                   ("blk", Json.Int w.w_blk);
                   ("idx", Json.Int w.w_idx);
                   ("store", Json.Bool w.w_store);
                   ("width", Json.Int w.w_width);
                 ])
             d.d_widest) );
      ("observed", Json.Int d.d_observed);
      ("predicted_hit", Json.Int d.d_predicted_hit);
      ("dyn_flows", Json.Int d.d_dyn_flows);
      ("violations", Json.Int (dep_violations d));
    ]

let cost_to_json c =
  let s = c.co_pred in
  Json.Obj
    [
      ("workload", Json.String c.co_workload);
      ("kind", Json.String (Workloads.Registry.kind_name c.co_kind));
      ("level", Json.String (Core.Heuristics.level_tag c.co_level));
      ("tasks", Json.Int c.co_tasks);
      ("scalar", Json.Float c.co_scalar);
      ("pred_useful", Json.Float s.Analysis.Cost.s_useful);
      ("pred_data_wait", Json.Float s.Analysis.Cost.s_data_wait);
      ("pred_ctrl_squash", Json.Float s.Analysis.Cost.s_ctrl_squash);
      ("pred_mem_squash", Json.Float s.Analysis.Cost.s_mem_squash);
      ("pred_load_imbalance", Json.Float s.Analysis.Cost.s_load_imbalance);
      ("pred_overhead", Json.Float s.Analysis.Cost.s_overhead);
    ]

type fuzz = {
  z_seed : int;
  z_profile : string;
  z_programs : int;
  z_levels : int;
  z_lint_pass : int;
  z_roundtrip_pass : int;
  z_trace_pass : int;
  z_dep_pass : int;
  z_absint_pass : int;
  z_acct_pass : int;
  z_cost_pass : int;
  z_fb_bound_pass : int;
  z_ref_checked : int;
  z_ref_pass : int;
  z_violations : int;
}

(* Integer-only like accounts and deps: pass rates are derived by readers. *)
let fuzz_to_json z =
  Json.Obj
    [
      ("seed", Json.Int z.z_seed);
      ("profile", Json.String z.z_profile);
      ("programs", Json.Int z.z_programs);
      ("levels", Json.Int z.z_levels);
      ("lint_pass", Json.Int z.z_lint_pass);
      ("roundtrip_pass", Json.Int z.z_roundtrip_pass);
      ("trace_pass", Json.Int z.z_trace_pass);
      ("dep_pass", Json.Int z.z_dep_pass);
      ("absint_pass", Json.Int z.z_absint_pass);
      ("acct_pass", Json.Int z.z_acct_pass);
      ("cost_pass", Json.Int z.z_cost_pass);
      ("fb_bound_pass", Json.Int z.z_fb_bound_pass);
      ("ref_checked", Json.Int z.z_ref_checked);
      ("ref_pass", Json.Int z.z_ref_pass);
      ("violations", Json.Int z.z_violations);
    ]

let accounts_to_json accounts =
  Json.Obj [ ("accounts", Json.List (List.map account_to_json accounts)) ]

let to_json ?fuzz results =
  Json.Obj
    (("jobs", Json.List (List.map result_to_json results))
    ::
    (match fuzz with
    | None -> []
    | Some zs -> [ ("fuzz", Json.List (List.map fuzz_to_json zs)) ]))

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_string name = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected string" name)

let as_int name = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S: expected int" name)

let as_bool name = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S: expected bool" name)

let as_float name = function
  | Json.Float x -> Ok x
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "field %S: expected number" name)

let str name j = let* v = field name j in as_string name v
let int name j = let* v = field name j in as_int name v
let boolean name j = let* v = field name j in as_bool name v
let num name j = let* v = field name j in as_float name v

let result_of_json j =
  let* workload = str "workload" j in
  let* kind_s = str "kind" j in
  let* kind =
    match kind_s with
    | "int" -> Ok `Int
    | "fp" -> Ok `Fp
    | s -> Error (Printf.sprintf "unknown kind %S" s)
  in
  let* level_s = str "level" j in
  let* level = Core.Heuristics.level_of_string level_s in
  let* num_pus = int "num_pus" j in
  let* in_order = boolean "in_order" j in
  let* ipc = num "ipc" j in
  let* cycles = int "cycles" j in
  let* dyn_insns = int "dyn_insns" j in
  let* tasks = int "tasks" j in
  let* task_size = num "task_size" j in
  let* ct_per_task = num "ct_per_task" j in
  let* task_mispredict = num "task_mispredict" j in
  let* window_span = num "window_span" j in
  Ok
    {
      spec = { workload; level; num_pus; in_order };
      kind;
      ipc;
      cycles;
      dyn_insns;
      tasks;
      task_size;
      ct_per_task;
      task_mispredict;
      window_span;
    }

let of_json j =
  match Json.member "jobs" j with
  | Some (Json.List items) ->
    List.fold_right
      (fun item acc ->
        let* rest = acc in
        let* r = result_of_json item in
        Ok (r :: rest))
      items (Ok [])
  | Some _ -> Error "field \"jobs\": expected a list of results"
  | None -> Error "expected an object with a \"jobs\" member"

let export ~path ?fuzz results = Json.to_file path (to_json ?fuzz results)
