(* Figure 5: IPC of the four task-selection schemes on 4 and 8 PUs, with
   out-of-order and in-order PUs, for the integer and fp benchmarks. *)

type row = {
  workload : string;
  kind : Workloads.Registry.kind;
  (* ipc.(level_index).(config_index); configs fixed as
     [4PU ooo; 8PU ooo; 4PU io; 8PU io] *)
  ipc : float array array;
}

let configs = [ (4, false); (8, false); (4, true); (8, true) ]
let config_names = [ "4PU/ooo"; "8PU/ooo"; "4PU/io"; "8PU/io" ]

let levels = Core.Heuristics.all_levels

let run ~store ?jobs entries =
  Harness.Pool.map ?jobs
    (fun entry ->
      (* nested fan-out: each (entry, level) is an independent pipeline +
         four simulations, so the inner map exposes entries x levels
         tasks to the scheduler — a worker that finishes its entry's
         levels steals another entry's instead of idling *)
      let ipc =
        Array.of_list
          (Harness.Pool.map ?jobs
             (fun level ->
               let results =
                 Experiment.run_level_configs ~store ~level ~configs entry
               in
               Array.of_list
                 (List.map (fun r -> Sim.Stats.ipc r.Experiment.stats) results))
             levels)
      in
      {
        workload = entry.Workloads.Registry.name;
        kind = entry.Workloads.Registry.kind;
        ipc;
      })
    entries

let pp ppf rows =
  Format.fprintf ppf
    "@[<v>Figure 5: IPC by task-selection heuristic (rows) and machine \
     configuration@,";
  List.iteri
    (fun ci cname ->
      Format.fprintf ppf "@,-- %s --@," cname;
      Format.fprintf ppf "%-10s %6s %6s %6s %6s   %s@," "bench" "bb" "cf" "dd"
        "ts" "gain cf/bb dd/cf ts/dd";
      List.iter
        (fun row ->
          let v l = row.ipc.(l).(ci) in
          let gain a b = if a <= 0.0 then 0.0 else 100.0 *. (b -. a) /. a in
          Format.fprintf ppf "%-10s %6.2f %6.2f %6.2f %6.2f   %+5.1f%% %+5.1f%% %+5.1f%%@,"
            row.workload (v 0) (v 1) (v 2) (v 3)
            (gain (v 0) (v 1))
            (gain (v 1) (v 2))
            (gain (v 2) (v 3)))
        rows)
    config_names;
  Format.fprintf ppf "@]"
