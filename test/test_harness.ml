(* Tests for the unified experiment engine: JSON round-trips, the domain
   pool (order preservation, serial fallback, error propagation), the
   artifact store's exactly-once memoization, and parallel/serial
   equivalence of the report tables that run through it. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 0.0) (* exact *)

(* --- Json ------------------------------------------------------------------ *)

let sample_json =
  Harness.Json.(
    Obj
      [
        ("name", String "compress \"alt\"\n");
        ("ipc", Float 1.625);
        ("tiny", Float 3.5e-9);
        ("third", Float (1.0 /. 3.0));
        ("whole", Float 2.0);
        ("count", Int 42);
        ("neg", Int (-7));
        ("flag", Bool true);
        ("nothing", Null);
        ("xs", List [ Int 1; Float 0.1; String "x"; List []; Obj [] ]);
      ])

let test_json_roundtrip () =
  let s = Harness.Json.to_string sample_json in
  (match Harness.Json.parse s with
   | Ok v -> checkb "roundtrip equal" true (v = sample_json)
   | Error e -> Alcotest.fail e);
  (* compact form parses to the same tree *)
  match Harness.Json.parse (Harness.Json.to_string ~indent:false sample_json) with
  | Ok v -> checkb "compact roundtrip" true (v = sample_json)
  | Error e -> Alcotest.fail e

let test_json_float_stays_float () =
  (* whole-valued floats must not collapse to Int on re-parse *)
  match Harness.Json.parse (Harness.Json.to_string (Harness.Json.Float 2.0)) with
  | Ok (Harness.Json.Float x) -> checkf "value" 2.0 x
  | Ok _ -> Alcotest.fail "re-parsed as a non-float"
  | Error e -> Alcotest.fail e

let test_json_errors () =
  let bad s =
    match Harness.Json.parse s with Ok _ -> false | Error _ -> true
  in
  checkb "garbage" true (bad "{nope}");
  checkb "trailing" true (bad "[1] tail");
  checkb "unterminated" true (bad "\"abc");
  checkb "empty" true (bad "")

(* --- Pool ------------------------------------------------------------------ *)

let test_pool_map_order () =
  let xs = List.init 57 (fun i -> i) in
  let expected = List.map (fun x -> (x * x) + 1 ) xs in
  checkb "serial" true
    (Harness.Pool.map ~jobs:1 (fun x -> (x * x) + 1) xs = expected);
  checkb "parallel 2" true
    (Harness.Pool.map ~jobs:2 (fun x -> (x * x) + 1) xs = expected);
  checkb "parallel 8" true
    (Harness.Pool.map ~jobs:8 (fun x -> (x * x) + 1) xs = expected);
  checkb "more jobs than items" true
    (Harness.Pool.map ~jobs:8 (fun x -> x) [ 1; 2 ] = [ 1; 2 ]);
  checkb "empty" true (Harness.Pool.map ~jobs:4 (fun x -> x) [] = [])

let test_pool_error_propagates () =
  Alcotest.check_raises "exception resurfaces" (Failure "boom") (fun () ->
      ignore
        (Harness.Pool.map ~jobs:2
           (fun x -> if x = 3 then failwith "boom" else x)
           [ 1; 2; 3; 4 ]))

let test_pool_default_jobs () =
  (match Sys.getenv_opt "HARNESS_JOBS" with
  | Some _ -> checkb "positive" true (Harness.Pool.default_jobs () >= 1)
  | None ->
    (* match the machine: oversubscribing a single core with extra domains
       only adds minor-GC synchronisation overhead *)
    checkb "defaults to the domain count" true
      (Harness.Pool.default_jobs () = Domain.recommended_domain_count ()));
  (* the env override is clamped and validated; restore the variable
     afterwards so this test cannot change its siblings' width *)
  let saved = Sys.getenv_opt "HARNESS_JOBS" in
  let restore () =
    match saved with
    | Some v -> Unix.putenv "HARNESS_JOBS" v
    | None -> Unix.putenv "HARNESS_JOBS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      let recommended = Domain.recommended_domain_count () in
      Unix.putenv "HARNESS_JOBS" "1";
      checki "explicit 1" 1 (Harness.Pool.default_jobs ());
      Unix.putenv "HARNESS_JOBS" (string_of_int (recommended + 7));
      checki "clamped to recommended" recommended (Harness.Pool.default_jobs ());
      let rejects v =
        Unix.putenv "HARNESS_JOBS" v;
        match Harness.Pool.default_jobs () with
        | _ -> checkb (Printf.sprintf "rejects %S" v) true false
        | exception Failure _ -> ()
      in
      rejects "0";
      rejects "-3";
      rejects "three";
      (* blank means unset (the `HARNESS_JOBS= cmd` idiom) *)
      Unix.putenv "HARNESS_JOBS" "";
      checki "blank falls back" recommended (Harness.Pool.default_jobs ()))

(* --- Artifact store -------------------------------------------------------- *)

let test_artifact_physical_equality () =
  let store = Harness.Artifact.create () in
  let entry = Workloads.Suite.find "compress" in
  let a1 =
    Harness.Artifact.get store ~level:Core.Heuristics.Control_flow entry
  in
  let a2 =
    Harness.Artifact.get store ~level:Core.Heuristics.Control_flow entry
  in
  checkb "same plan (==)" true (a1.Harness.Artifact.plan == a2.Harness.Artifact.plan);
  checkb "same trace (==)" true
    (a1.Harness.Artifact.trace == a2.Harness.Artifact.trace);
  checki "one pipeline build" 1 (Harness.Artifact.builds store);
  (* a different key is a different pipeline *)
  let a3 =
    Harness.Artifact.get store ~level:Core.Heuristics.Basic_block entry
  in
  checkb "distinct plan" true (a3.Harness.Artifact.plan != a1.Harness.Artifact.plan);
  checki "two pipeline builds" 2 (Harness.Artifact.builds store)

let test_sim_memoized () =
  let store = Harness.Artifact.create () in
  let entry = Workloads.Suite.find "compress" in
  let art =
    Harness.Artifact.get store ~level:Core.Heuristics.Control_flow entry
  in
  let s1 = Harness.Artifact.sim store art ~num_pus:4 ~in_order:false in
  let s2 = Harness.Artifact.sim store art ~num_pus:4 ~in_order:false in
  checkb "same stats record (==)" true (s1 == s2);
  checki "still one pipeline build" 1 (Harness.Artifact.builds store);
  checki "one recorded sim" 1 (List.length (Harness.Artifact.sim_results store))

let test_artifact_concurrent_once () =
  (* eight domains racing on one key must compute it exactly once and agree
     on the physical result *)
  let store = Harness.Artifact.create () in
  let entry = Workloads.Suite.find "compress" in
  let plans =
    Harness.Pool.map ~jobs:8
      (fun _ ->
        (Harness.Artifact.get store ~level:Core.Heuristics.Basic_block entry)
          .Harness.Artifact.plan)
      (List.init 8 (fun i -> i))
  in
  checki "one build under contention" 1 (Harness.Artifact.builds store);
  match plans with
  | first :: rest -> checkb "all physically equal" true (List.for_all (fun p -> p == first) rest)
  | [] -> Alcotest.fail "no results"

(* --- parallel/serial equivalence of the report tables ---------------------- *)

let small_suite () =
  [ Workloads.Suite.find "compress"; Workloads.Suite.find "li" ]

let test_table1_parallel_matches_serial () =
  let serial =
    Report.Table1.run ~store:(Harness.Artifact.create ()) ~jobs:1
      (small_suite ())
  in
  let parallel =
    Report.Table1.run ~store:(Harness.Artifact.create ()) ~jobs:2
      (small_suite ())
  in
  checkb "identical rows" true (serial = parallel)

let test_figure5_store_matches_direct () =
  let entry = Workloads.Suite.find "compress" in
  (* the same grid driven straight through the pipeline layers *)
  let direct_ipc level =
    let prog = entry.Workloads.Registry.build () in
    let plan = Core.Cost.plan_for_level level prog in
    let outcome = Interp.Run.execute plan.Core.Partition.prog in
    let trace = outcome.Interp.Run.trace in
    let prep = Sim.Engine.prepare plan trace in
    Array.of_list
      (List.map
         (fun (num_pus, in_order) ->
           let cfg = Sim.Config.default ~num_pus ~in_order in
           let r = Sim.Engine.run_prepared cfg prep trace in
           Sim.Stats.ipc r.Sim.Engine.stats)
         Report.Figure5.configs)
  in
  let direct =
    [
      {
        Report.Figure5.workload = "compress";
        kind = entry.Workloads.Registry.kind;
        ipc = Array.of_list (List.map direct_ipc Report.Figure5.levels);
      };
    ]
  in
  let store = Harness.Artifact.create () in
  let cached = Report.Figure5.run ~store ~jobs:1 [ entry ] in
  checkb "identical rows" true (direct = cached);
  (* one pipeline per heuristic level, reused across all four machine
     configurations *)
  checki "four pipeline builds" 4 (Harness.Artifact.builds store);
  checki "sixteen recorded sims" 16
    (List.length (Harness.Artifact.sim_results store));
  (* a second pass is served entirely from the cache *)
  let again = Report.Figure5.run ~store ~jobs:1 [ entry ] in
  checkb "cache-served pass identical" true (cached = again);
  checki "still four pipeline builds" 4 (Harness.Artifact.builds store)

(* --- jobs + export --------------------------------------------------------- *)

let test_job_specs_grid () =
  let specs =
    Harness.Job.specs_for
      ~levels:[ Core.Heuristics.Basic_block; Core.Heuristics.Control_flow ]
      ~configs:[ (4, false); (8, true) ]
      [ "compress"; "li" ]
  in
  checki "grid size" 8 (List.length specs);
  checkb "first spec" true
    (List.hd specs
     = { Harness.Job.workload = "compress";
         level = Core.Heuristics.Basic_block; num_pus = 4; in_order = false })

let test_job_run_and_json_roundtrip () =
  let store = Harness.Artifact.create () in
  let specs =
    Harness.Job.specs_for
      ~levels:[ Core.Heuristics.Control_flow ]
      ~configs:[ (4, false); (8, false) ]
      [ "compress" ]
  in
  let results = Harness.Job.run ~jobs:2 store specs in
  checki "one result per spec" (List.length specs) (List.length results);
  checkb "positive ipc" true
    (List.for_all (fun r -> r.Harness.Job.ipc > 0.0) results);
  checki "one pipeline for both configs" 1 (Harness.Artifact.builds store);
  (* JSON round-trip preserves every field exactly *)
  let j = Harness.Job.to_json results in
  let s = Harness.Json.to_string j in
  (match Harness.Json.parse s with
   | Error e -> Alcotest.fail e
   | Ok parsed ->
     (match Harness.Job.of_json parsed with
      | Error e -> Alcotest.fail e
      | Ok back -> checkb "results roundtrip" true (back = results)));
  (* the store's recorded trajectory covers the same runs *)
  let recorded = Harness.Job.results_of_store store in
  checkb "recorded = run results" true
    (List.sort compare recorded = List.sort compare results)

let test_job_export_file () =
  let store = Harness.Artifact.create () in
  let specs =
    Harness.Job.specs_for
      ~levels:[ Core.Heuristics.Basic_block ]
      ~configs:[ (4, false) ]
      [ "compress" ]
  in
  let results = Harness.Job.run ~jobs:1 store specs in
  let path = Filename.temp_file "harness_results" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Harness.Job.export ~path results;
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Harness.Json.parse (String.trim contents) with
      | Error e -> Alcotest.fail e
      | Ok parsed ->
        (match Harness.Job.of_json parsed with
         | Error e -> Alcotest.fail e
         | Ok back -> checkb "file roundtrip" true (back = results)))

(* results.json has one shape: an object whose "jobs" member holds the
   results; a bare list of results is rejected. *)
let test_job_export_object_shape () =
  let store = Harness.Artifact.create () in
  let specs =
    Harness.Job.specs_for
      ~levels:[ Core.Heuristics.Basic_block ]
      ~configs:[ (4, false) ]
      [ "compress" ]
  in
  let results = Harness.Job.run ~jobs:1 store specs in
  let path = Filename.temp_file "harness_results_shape" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Harness.Job.export ~path results;
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Harness.Json.parse (String.trim contents) with
      | Error e -> Alcotest.fail e
      | Ok (Harness.Json.Obj [ ("jobs", (Harness.Json.List _ as jobs)) ]) ->
        checkb "bare list rejected" true
          (Result.is_error (Harness.Job.of_json jobs));
        checkb "empty bare list rejected" true
          (Result.is_error (Harness.Job.of_json (Harness.Json.List [])))
      | Ok _ -> Alcotest.fail "expected {\"jobs\": [...]} at top level")

(* Run a shell command; its exit status and what it wrote to stderr. *)
let run_stderr cmd =
  let err = Filename.temp_file "msc_stderr" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s > /dev/null 2> %s" cmd (Filename.quote err))
      in
      let ic = open_in_bin err in
      let msg = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, msg))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Every msc subcommand that writes a JSON file reports an unwritable path
   as a user error (exit 1), never as an uncaught exception. *)
let test_msc_unwritable_json () =
  let file = Filename.temp_file "msc_not_a_dir" "" in
  let target = Filename.concat file "out.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun args ->
          let code, msg =
            run_stderr
              (Printf.sprintf "../bin/msc.exe %s --json %s" args
                 (Filename.quote target))
          in
          checki (args ^ ": exit status") 1 code;
          checkb (args ^ ": reports the path") true
            (contains msg "msc: cannot write"))
        [
          "table1 --only compress"; "figure5 --only compress";
          "breakdown --only compress -l bb -p 4"; "lint --only compress -l bb";
          "deps --only compress -l bb"; "absint --only compress -l bb";
          "cost --only compress -l bb"; "fuzz -n 1 -l bb";
        ])

(* A bad grid query is a command-line error that names the offending value,
   never an uncaught exception. *)
let test_msc_bad_arguments () =
  List.iter
    (fun (cmd, bad) ->
      let code, msg = run_stderr cmd in
      checkb (cmd ^ ": non-zero exit") true (code <> 0);
      checkb (cmd ^ ": names " ^ bad) true (contains msg bad);
      checkb (cmd ^ ": no uncaught exception") false
        (contains msg "uncaught exception"))
    [
      ("../bin/msc.exe table1 --only nosuch", {|"nosuch"|});
      ("../bin/msc.exe run -w nosuch", {|"nosuch"|});
      ("../bin/msc.exe run -w compress -p 0", {|"0"|});
      ("../bin/msc.exe deps --only compress -l bb -p 0", {|"0"|});
      ("../bin/msc.exe breakdown --only compress -l bb -p 0", {|"0"|});
      ("../bin/msc.exe superscalar -w compress --width 0", {|"0"|});
      ("../bin/msc.exe cost --only compress -l zz", {|"zz"|});
      ("../bin/msc.exe fuzz -n 1 --profile nosuch", {|"nosuch"|});
      ("HARNESS_JOBS=x ../bin/msc.exe table1 --only compress", {|"x"|});
    ]

(* --- stats ----------------------------------------------------------------- *)

let test_geomean () =
  checkf "empty" 0.0 (Harness.Stat.geomean []);
  checkf "singleton" 4.0 (Harness.Stat.geomean [ 4.0 ]);
  Alcotest.check (Alcotest.float 1e-12) "pair" 2.0
    (Harness.Stat.geomean [ 1.0; 4.0 ]);
  (* matches the historical bench/main.ml definition: values clamped at 1e-9 *)
  Alcotest.check (Alcotest.float 1e-12) "clamped"
    (exp ((log 1e-9 +. log 1.0) /. 2.0))
    (Harness.Stat.geomean [ 0.0; 1.0 ]);
  checkf "mean empty" 0.0 (Harness.Stat.mean []);
  checkf "mean" 2.5 (Harness.Stat.mean [ 1.0; 4.0 ])

let () =
  Alcotest.run "harness"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float stays float" `Quick
            test_json_float_stays_float;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order" `Quick test_pool_map_order;
          Alcotest.test_case "errors" `Quick test_pool_error_propagates;
          Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
        ] );
      ( "artifact store",
        [
          Alcotest.test_case "physical equality" `Quick
            test_artifact_physical_equality;
          Alcotest.test_case "sim memoized" `Quick test_sim_memoized;
          Alcotest.test_case "concurrent once" `Quick
            test_artifact_concurrent_once;
        ] );
      ( "parallel = serial",
        [
          Alcotest.test_case "table1" `Slow test_table1_parallel_matches_serial;
          Alcotest.test_case "figure5 store" `Slow
            test_figure5_store_matches_direct;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "spec grid" `Quick test_job_specs_grid;
          Alcotest.test_case "run + json" `Quick test_job_run_and_json_roundtrip;
          Alcotest.test_case "export file" `Quick test_job_export_file;
          Alcotest.test_case "export object shape" `Quick
            test_job_export_object_shape;
          Alcotest.test_case "msc unwritable json" `Quick
            test_msc_unwritable_json;
          Alcotest.test_case "msc bad arguments" `Quick
            test_msc_bad_arguments;
        ] );
      ( "stats",
        [ Alcotest.test_case "geomean" `Quick test_geomean ] );
    ]
