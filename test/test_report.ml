(* Tests for the reporting layer: window-span formula, normalised
   misprediction, experiment runners and table formatting. *)

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_window_span_perfect_prediction () =
  (* pred = 1: span = N * task size *)
  checkf "pred 1" 80.0
    (Report.Window_span.formula ~task_size:10.0 ~pred:1.0 ~num_pus:8)

let test_window_span_no_prediction () =
  (* pred = 0: only the head task contributes *)
  checkf "pred 0" 10.0
    (Report.Window_span.formula ~task_size:10.0 ~pred:0.0 ~num_pus:8)

let test_window_span_geometric () =
  (* pred = 0.5, size 1, 3 PUs: 1 + 0.5 + 0.25 *)
  checkf "geometric" 1.75
    (Report.Window_span.formula ~task_size:1.0 ~pred:0.5 ~num_pus:3)

let test_window_span_monotone_in_pred () =
  let a = Report.Window_span.formula ~task_size:9.0 ~pred:0.8 ~num_pus:8 in
  let b = Report.Window_span.formula ~task_size:9.0 ~pred:0.95 ~num_pus:8 in
  checkb "higher accuracy, larger window" true (b > a)

let test_normalised_mispred () =
  (* one control transfer per task: identical *)
  checkf "ct=1 identity" 10.0
    (Report.Table1.normalised_mispred ~task_mispred:10.0 ~ct:1.0);
  (* several transfers per task: per-branch rate is lower *)
  checkb "ct=4 lower" true
    (Report.Table1.normalised_mispred ~task_mispred:10.0 ~ct:4.0 < 10.0);
  (* and compounding it back recovers the task rate *)
  let b = Report.Table1.normalised_mispred ~task_mispred:20.0 ~ct:3.0 in
  let back = 100.0 *. (1.0 -. (((100.0 -. b) /. 100.0) ** 3.0)) in
  checkb "roundtrip" true (Float.abs (back -. 20.0) < 1e-6)

let test_experiment_run_one () =
  let entry = Workloads.Suite.find "compress" in
  let r =
    Report.Experiment.run_one ~store:(Harness.Artifact.create ())
      ~level:Core.Heuristics.Control_flow ~num_pus:4 ~in_order:false entry
  in
  checkb "ipc positive" true (Sim.Stats.ipc r.Report.Experiment.stats > 0.0);
  checkb "workload recorded" true (String.equal r.Report.Experiment.workload "compress")

let test_experiment_shared_trace_consistent () =
  (* run_level_configs must agree with a separate run_one call on a
     fresh store, which rebuilds the pipeline from scratch *)
  let entry = Workloads.Suite.find "compress" in
  let results =
    Report.Experiment.run_level_configs ~store:(Harness.Artifact.create ())
      ~level:Core.Heuristics.Control_flow
      ~configs:[ (4, false); (8, false) ]
      entry
  in
  let solo =
    Report.Experiment.run_one ~store:(Harness.Artifact.create ())
      ~level:Core.Heuristics.Control_flow ~num_pus:4 ~in_order:false entry
  in
  let shared = List.hd results in
  checkf "same ipc from shared trace"
    (Sim.Stats.ipc solo.Report.Experiment.stats)
    (Sim.Stats.ipc shared.Report.Experiment.stats)

let test_table1_row () =
  let rows =
    Report.Table1.run ~store:(Harness.Artifact.create ())
      [ Workloads.Suite.find "compress" ]
  in
  match rows with
  | [ row ] ->
    checkb "cf tasks bigger than bb" true
      (row.Report.Table1.cf.Report.Table1.dyn_inst
       > row.Report.Table1.bb.Report.Table1.dyn_inst);
    checkb "bb window smaller than dd window" true
      (row.Report.Table1.bb.Report.Table1.win_span
       < row.Report.Table1.dd.Report.Table1.win_span);
    let s = Format.asprintf "%a" Report.Table1.pp rows in
    checkb "renders" true (String.length s > 100)
  | _ -> Alcotest.fail "expected one row"

let test_figure5_row () =
  let rows =
    Report.Figure5.run ~store:(Harness.Artifact.create ())
      [ Workloads.Suite.find "compress" ]
  in
  match rows with
  | [ row ] ->
    (* 4 levels x 4 configs, all positive *)
    checkb "shape" true
      (Array.length row.Report.Figure5.ipc = 4
      && Array.for_all
           (fun a -> Array.length a = 4 && Array.for_all (fun x -> x > 0.0) a)
           row.Report.Figure5.ipc);
    (* control flow beats basic block on the 4PU/ooo configuration *)
    checkb "cf > bb" true
      (row.Report.Figure5.ipc.(1).(0) > row.Report.Figure5.ipc.(0).(0));
    let s = Format.asprintf "%a" Report.Figure5.pp rows in
    checkb "renders" true (String.length s > 100)
  | _ -> Alcotest.fail "expected one row"

let () =
  Alcotest.run "report"
    [
      ( "window span",
        [
          Alcotest.test_case "perfect" `Quick test_window_span_perfect_prediction;
          Alcotest.test_case "zero" `Quick test_window_span_no_prediction;
          Alcotest.test_case "geometric" `Quick test_window_span_geometric;
          Alcotest.test_case "monotone" `Quick test_window_span_monotone_in_pred;
        ] );
      ( "normalisation",
        [ Alcotest.test_case "per-branch rate" `Quick test_normalised_mispred ] );
      ( "experiments",
        [
          Alcotest.test_case "run one" `Quick test_experiment_run_one;
          Alcotest.test_case "shared trace" `Quick
            test_experiment_shared_trace_consistent;
          Alcotest.test_case "table1" `Quick test_table1_row;
          Alcotest.test_case "figure5" `Slow test_figure5_row;
        ] );
    ]
