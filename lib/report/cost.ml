(* Static cost model vs the simulator's cycle accounting: the Core.Cost
   predicted shares per workload × heuristic level, joined against the
   measured Sim.Account shares of the default 8-PU out-of-order machine —
   and, per level, the Pearson correlation between predicted and measured
   share of each penalty category.  The fb selection level is exactly a
   bet that the static model ranks plans the way the machine does; the
   per-level geometric-mean IPC row pins the payoff of that bet. *)

type row = {
  cost : Harness.Job.cost;
  num_pus : int;           (** machine the measured shares come from *)
  in_order : bool;
  ipc : float;
  meas_useful_pct : float;
  meas_data_wait_pct : float;
  meas_ctrl_squash_pct : float;
  meas_mem_squash_pct : float;
  meas_load_imbalance_pct : float;
  meas_overhead_pct : float;
}

let run ~store ?jobs ?(levels = Core.Heuristics.extended_levels)
    ?(num_pus = 8) ?(in_order = false) entries =
  let cells =
    List.concat_map
      (fun entry -> List.map (fun level -> (entry, level)) levels)
      entries
  in
  Harness.Pool.map ?jobs
    (fun (entry, level) ->
      let art = Harness.Artifact.get store ~level entry in
      let cost = Harness.Job.cost_of_artifact art in
      let stats = Harness.Artifact.sim store art ~num_pus ~in_order in
      let acct = stats.Sim.Stats.acct in
      let pct c = Sim.Account.pct acct c in
      {
        cost;
        num_pus;
        in_order;
        ipc = Sim.Stats.ipc stats;
        meas_useful_pct = pct Sim.Account.Useful;
        meas_data_wait_pct = pct Sim.Account.Data_wait;
        meas_ctrl_squash_pct = pct Sim.Account.Ctrl_squash;
        meas_mem_squash_pct = pct Sim.Account.Mem_squash;
        meas_load_imbalance_pct = pct Sim.Account.Load_imbalance;
        meas_overhead_pct = pct Sim.Account.Overhead;
      })
    cells

(* The categories the model predicts; Idle has no static counterpart (it
   is a property of the machine draining, not of the partition). *)
let categories =
  [
    ("data_wait", (fun (s : Analysis.Cost.shares) -> s.Analysis.Cost.s_data_wait),
     fun r -> r.meas_data_wait_pct);
    ("ctrl_squash", (fun s -> s.Analysis.Cost.s_ctrl_squash),
     fun r -> r.meas_ctrl_squash_pct);
    ("mem_squash", (fun s -> s.Analysis.Cost.s_mem_squash),
     fun r -> r.meas_mem_squash_pct);
    ("load_imbalance", (fun s -> s.Analysis.Cost.s_load_imbalance),
     fun r -> r.meas_load_imbalance_pct);
    ("overhead", (fun s -> s.Analysis.Cost.s_overhead),
     fun r -> r.meas_overhead_pct);
  ]

(* Predicted share against measured share, one sample per workload,
   correlated within each heuristic level (mixing levels would launder a
   between-level trend into a model-accuracy claim). *)
let correlation rows =
  List.concat_map
    (fun level ->
      List.filter_map
        (fun (cname, pred_of, meas_of) ->
          let pts =
            List.filter_map
              (fun r ->
                if r.cost.Harness.Job.co_level <> level then None
                else Some (pred_of r.cost.Harness.Job.co_pred, meas_of r))
              rows
          in
          match Harness.Stat.pearson_opt pts with
          | None -> None
          | Some p -> Some (level, cname, List.length pts, p))
        categories)
    Core.Heuristics.extended_levels

let geomean_ipc rows =
  List.filter_map
    (fun level ->
      match
        List.filter_map
          (fun r ->
            if r.cost.Harness.Job.co_level = level then Some r.ipc else None)
          rows
      with
      | [] -> None
      | xs -> Some (level, List.length xs, Harness.Stat.geomean xs))
    Core.Heuristics.extended_levels

let pp ppf rows =
  Format.fprintf ppf "@[<v>Predicted cost shares vs measured cycle account@,";
  Format.fprintf ppf "%-10s %-3s %6s %8s %6s %6s %6s %6s %6s %6s %6s %6s@,"
    "workload" "lvl" "tasks" "scalar" "pDATA" "mDATA" "pCTRL" "mCTRL" "pIMB"
    "mIMB" "pMEM" "mMEM";
  List.iter
    (fun r ->
      let c = r.cost in
      let s = c.Harness.Job.co_pred in
      Format.fprintf ppf
        "%-10s %-3s %6d %8.3f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f@,"
        c.Harness.Job.co_workload
        (Core.Heuristics.level_tag c.Harness.Job.co_level)
        c.Harness.Job.co_tasks c.Harness.Job.co_scalar
        (100.0 *. s.Analysis.Cost.s_data_wait)
        r.meas_data_wait_pct
        (100.0 *. s.Analysis.Cost.s_ctrl_squash)
        r.meas_ctrl_squash_pct
        (100.0 *. s.Analysis.Cost.s_load_imbalance)
        r.meas_load_imbalance_pct
        (100.0 *. s.Analysis.Cost.s_mem_squash)
        r.meas_mem_squash_pct)
    rows;
  Format.fprintf ppf "@,Pearson r: predicted vs measured share@,";
  List.iter
    (fun (level, cname, n, p) ->
      Format.fprintf ppf "  %-3s %-14s over %2d workloads: %+.3f@,"
        (Core.Heuristics.level_tag level) cname n p)
    (correlation rows);
  Format.fprintf ppf "@,Geometric-mean IPC per level@,";
  List.iter
    (fun (level, n, g) ->
      Format.fprintf ppf "  %-3s over %2d workloads: %.3f@,"
        (Core.Heuristics.level_tag level) n g)
    (geomean_ipc rows);
  Format.fprintf ppf "@]"

let to_json rows =
  Harness.Json.Obj
    [
      ( "cost",
        Harness.Json.List
          (List.map
             (fun r ->
               match Harness.Job.cost_to_json r.cost with
               | Harness.Json.Obj fields ->
                 Harness.Json.Obj
                   (fields
                   @ [
                       ("num_pus", Harness.Json.Int r.num_pus);
                       ("in_order", Harness.Json.Bool r.in_order);
                       ("ipc", Harness.Json.Float r.ipc);
                       ("meas_useful_pct", Harness.Json.Float r.meas_useful_pct);
                       ( "meas_data_wait_pct",
                         Harness.Json.Float r.meas_data_wait_pct );
                       ( "meas_ctrl_squash_pct",
                         Harness.Json.Float r.meas_ctrl_squash_pct );
                       ( "meas_mem_squash_pct",
                         Harness.Json.Float r.meas_mem_squash_pct );
                       ( "meas_load_imbalance_pct",
                         Harness.Json.Float r.meas_load_imbalance_pct );
                       ( "meas_overhead_pct",
                         Harness.Json.Float r.meas_overhead_pct );
                     ])
               | j -> j)
             rows) );
      ( "correlation",
        Harness.Json.List
          (List.map
             (fun (level, cname, n, p) ->
               Harness.Json.Obj
                 [
                   ( "level",
                     Harness.Json.String (Core.Heuristics.level_tag level) );
                   ("category", Harness.Json.String cname);
                   ("points", Harness.Json.Int n);
                   ("pearson", Harness.Json.Float p);
                 ])
             (correlation rows)) );
      ( "geomean_ipc",
        Harness.Json.List
          (List.map
             (fun (level, n, g) ->
               Harness.Json.Obj
                 [
                   ( "level",
                     Harness.Json.String (Core.Heuristics.level_tag level) );
                   ("points", Harness.Json.Int n);
                   ("geomean", Harness.Json.Float g);
                 ])
             (geomean_ipc rows)) );
    ]
