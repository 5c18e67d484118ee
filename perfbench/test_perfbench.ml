(* Self-tests of the benchmark: its statistics, its span arithmetic, its
   output checks, and the recorded digests cross-checked against the
   report path that produces the same numbers. *)

open Perfbench

let expected_dir = "expected"

let test_tail_rule () =
  let check n want =
    Alcotest.(check (option (pair (float 0.0) int)))
      (Printf.sprintf "n = %d" n) want (Quant.tail_percentile n)
  in
  check 19 None;
  check 20 (Some (50.0, 10));
  check 99 (Some (50.0, 49));
  check 100 (Some (90.0, 10));
  check 216 (Some (90.0, 21));
  check 999 (Some (90.0, 99));
  check 1000 (Some (99.0, 10));
  check 10_000 (Some (99.9, 10));
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.0)) "p90 nearest rank" 90.0 (Quant.percentile ~p:90.0 xs);
  Alcotest.(check (float 0.0)) "p50" 50.0 (Quant.percentile ~p:50.0 xs);
  Alcotest.(check (float 0.0)) "median even" 50.5 (Quant.median xs)

let test_quiet_factors () =
  (* pipeline 0 is fastest in the first pass, pipeline 1 in the second *)
  let passes = [ [ (0, 1.0); (1, 3.0) ]; [ (0, 2.0); (1, 1.0) ] ] in
  Alcotest.(check (list (float 1e-9))) "fastest runs over own runs" [ 0.5; 2.0 /. 3.0 ]
    (Quant.quiet_factors passes);
  (* a pass whose pipelines all ran at their fastest keeps its wall *)
  Alcotest.(check (list (float 1e-9))) "fastest pass" [ 1.0; 0.5 ]
    (Quant.quiet_factors [ [ (0, 1.0); (1, 1.0) ]; [ (1, 2.0); (0, 2.0) ] ])

let span id ?(parent = -1) t0 t1 words =
  { Spans.id; name = Printf.sprintf "s%d" id; parent; pipeline = 0; t0; t1; words }

let test_self_time () =
  (* root [0,10] has children [1,4] and [3,6], which overlap on [3,4], and
     the first child has a grandchild [2,3] *)
  let spans =
    [
      span 0 0.0 10.0 100.0;
      span 1 ~parent:0 1.0 4.0 30.0;
      span 2 ~parent:0 3.0 6.0 20.0;
      span 3 ~parent:1 2.0 3.0 5.0;
    ]
  in
  let self = Spans.self spans in
  let get id =
    let _, t, w = List.find (fun ((s : Spans.span), _, _) -> s.id = id) self in
    (t, w)
  in
  let check id (t, w) =
    let t', w' = get id in
    Alcotest.(check (float 1e-9)) (Printf.sprintf "self time s%d" id) t t';
    Alcotest.(check (float 1e-9)) (Printf.sprintf "self words s%d" id) w w'
  in
  check 0 (5.0, 50.0);
  check 1 (2.0, 25.0);
  check 2 (3.0, 20.0);
  check 3 (1.0, 5.0);
  (* recorded spans nest through the per-domain stack *)
  let t = Spans.create () in
  Spans.record t ~name:"outer" ~pipeline:7 (fun () ->
      Spans.record t ~name:"inner" ~pipeline:7 (fun () -> ()));
  match Spans.spans t with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first" "outer" outer.name;
    Alcotest.(check int) "inner's parent" outer.id inner.parent;
    Alcotest.(check int) "outer is a root" (-1) outer.parent;
    Alcotest.(check bool) "inner inside outer" true
      (outer.t0 <= inner.t0 && inner.t1 <= outer.t1)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_corrupt_digest () =
  let kind = Workload.Synth_short in
  let inputs = Workload.build_inputs ~corpus_seed:5 kind in
  let jobs =
    List.filteri (fun i _ -> i < 3) (Workload.jobs kind ~seed:1 inputs)
  in
  let pass = Workload.run_pass kind jobs in
  let expected = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter (fun (k, d) -> Hashtbl.replace expected k d) (Workload.digests_of kind r))
    (Workload.results pass);
  Alcotest.(check int) "clean pass" 0
    (List.length (Workload.failures kind expected pass));
  let key = List.hd (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) expected [])) in
  Hashtbl.replace expected key (String.make 32 '0');
  Alcotest.(check int) "corrupted digest fails its pipeline" 1
    (List.length (Workload.failures kind expected pass));
  Hashtbl.remove expected key;
  Alcotest.(check int) "missing digest fails its pipeline" 1
    (List.length (Workload.failures kind expected pass))

let test_reference_agrees () =
  (* the synth-short reference (frozen simulator) reproduces the measured
     path's digests *)
  let kind = Workload.Synth_short in
  let inputs = Workload.build_inputs ~corpus_seed:11 kind in
  let jobs =
    List.filteri (fun i _ -> i < 10) (Workload.jobs kind ~seed:3 inputs)
  in
  let expected = Workload.expected ~dir:expected_dir kind jobs in
  let pass = Workload.run_pass kind jobs in
  Alcotest.(check int) "no failures" 0
    (List.length (Workload.failures kind expected pass))

let test_synth_seed () =
  let corpus s =
    List.map
      (fun (i : Pipeline.input) -> Ir.Pp.program_text i.prog)
      (Workload.build_inputs ~corpus_seed:s Workload.Synth_short)
  in
  let a = corpus 1 and a' = corpus 1 and b = corpus 2 in
  Alcotest.(check bool) "same seed, same corpus" true (a = a');
  Alcotest.(check bool) "different seed, different corpus" true (a <> b);
  Alcotest.(check int) "corpus size"
    (Workload.synth_per_profile * List.length Workloads.Synth.Profile.all)
    (List.length b)

(* The recorded paper-grid digests are the statistics Report.Figure5.run
   computes: run the report through an artifact store and digest what it
   simulated. *)
let test_figure5_cross_check () =
  let expected =
    Workload.read_expected (Workload.expected_file ~dir:expected_dir Workload.Paper_grid)
  in
  let store = Harness.Artifact.create () in
  let rows = Report.Figure5.run ~store ~jobs:2 Workloads.Suite.all in
  let n = ref 0 in
  List.iter2
    (fun (entry : Workloads.Registry.entry) (row : Report.Figure5.row) ->
      List.iteri
        (fun li level ->
          let art = Harness.Artifact.get store ~level entry in
          List.iteri
            (fun ci (num_pus, in_order) ->
              let stats = Harness.Artifact.sim store art ~num_pus ~in_order in
              Alcotest.(check (float 0.0)) "figure5 ipc" row.ipc.(li).(ci)
                (Sim.Stats.ipc stats);
              let key =
                Printf.sprintf "%s/%s/%s" entry.name (Pipeline.level_tag level)
                  (Pipeline.config_tag (num_pus, in_order))
              in
              incr n;
              Alcotest.(check (option string)) key
                (Some (Pipeline.stats_digest stats))
                (Hashtbl.find_opt expected key))
            Report.Figure5.configs)
        Report.Figure5.levels)
    Workloads.Suite.all rows;
  Alcotest.(check int) "every recorded digest checked" (Hashtbl.length expected) !n

(* The recorded fb-search digests match the artifact-store pipeline. *)
let test_fb_cross_check () =
  let expected =
    Workload.read_expected (Workload.expected_file ~dir:expected_dir Workload.Fb_search)
  in
  let store = Harness.Artifact.create () in
  let level = Core.Heuristics.Feedback in
  List.iter
    (fun (entry : Workloads.Registry.entry) ->
      let art = Harness.Artifact.get store ~level entry in
      let stats = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
      let job =
        { Pipeline.pid = 0; input = { name = entry.name; prog = art.plan.prog };
          level; configs = [ (8, false) ] }
      in
      match
        Pipeline.digests ~with_entries:true
          ~task_entries:(Pipeline.task_entries art.plan) job
          [ { Pipeline.num_pus = 8; in_order = false; stats } ]
      with
      | [ (key, d) ] ->
        Alcotest.(check (option string)) key (Some d) (Hashtbl.find_opt expected key)
      | _ -> Alcotest.fail "one digest per simulation")
    Workloads.Suite.all;
  Alcotest.(check int) "one digest per workload"
    (List.length Workloads.Suite.all) (Hashtbl.length expected)

let () =
  Alcotest.run "perfbench"
    [
      ( "quant",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quiet pass factors" `Quick test_quiet_factors;
        ] );
      ( "spans",
        [ Alcotest.test_case "self time of nested spans" `Quick test_self_time ] );
      ( "checks",
        [
          Alcotest.test_case "corrupted digest is a failure" `Quick
            test_corrupt_digest;
          Alcotest.test_case "synth reference agrees" `Quick test_reference_agrees;
          Alcotest.test_case "synth seed changes corpus" `Quick test_synth_seed;
        ] );
      ( "expected",
        [
          Alcotest.test_case "paper-grid digests match figure5" `Slow
            test_figure5_cross_check;
          Alcotest.test_case "fb-search digests match artifact store" `Slow
            test_fb_cross_check;
        ] );
    ]
