(* Layered pipeline benchmark: command-line entry point.

   main.exe --workload paper-grid|fb-search|synth-short --seed N
            --seconds S --trace 0|1 [--corpus-seed C] [--record]

   Builds the workload's inputs (timed several times: setup_s), then runs
   passes over its pipeline list, in an order drawn from N, until S
   seconds have gone by (at least three passes), checks every pipeline's
   outputs and prints one metric per line followed by a JSON summary as
   the last line.  Pass walls and latencies are scaled by each pass's
   quiet factor ([Quant.quiet_factors]).  --trace 1 alternates untraced and
   traced passes and reports per-layer figures from the spans instead of
   the end-to-end metrics; the spans are written under perfbench/_out.
   --corpus-seed roots the synth-short corpus (default
   [Workload.default_corpus_seed]).  --record prints the digests of one
   pass, the format of perfbench/expected/*.digest.  Exits 1 when any
   check fails, 2 on bad arguments.  Run from the repository root. *)

open Perfbench

(* Set-up is timed in [setup_rounds] rounds.  A round repeats the input
   build for at least [round_seconds] and, for pooled workloads, starts a
   scheduler [round_sched_starts] times, and counts the fastest of each,
   for the reason given at [Quant.quiet_factors]; setup_s is the median
   over the rounds.  One build takes a few milliseconds, well inside the
   time a CPU takes to speed up after idling. *)
let setup_rounds = 11
let round_seconds = 0.18
let round_sched_starts = 3

(* Passes measured at least, so that every median has three samples. *)
let min_passes = 3

let expected_dir = "perfbench/expected"
let out_dir = "perfbench/_out"

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-grid|fb-search|synth-short --seed N \
     --seconds S --trace 0|1 [--corpus-seed C] [--record]";
  exit 2

type args = {
  workload : Workload.kind;
  seed : int;
  corpus_seed : int option;
  seconds : float;
  trace : bool;
  record : bool;
}

let parse argv =
  let rec go acc = function
    | [] -> acc
    | "--record" :: rest -> go (("record", "1") :: acc) rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = List.assoc_opt k kv in
  let int_of k =
    match Option.map int_of_string_opt (get k) with
    | Some (Some n) -> n
    | _ -> usage ()
  in
  let workload =
    match Option.bind (get "workload") Workload.of_name with
    | Some w -> w
    | None -> usage ()
  in
  let trace = match get "trace" with Some "1" -> true | Some "0" | None -> false | _ -> usage () in
  let seconds = int_of "seconds" in
  if seconds < 1 then usage ();
  {
    workload;
    seed = int_of "seed";
    corpus_seed = Option.map (fun _ -> int_of "corpus-seed") (get "corpus-seed");
    seconds = float_of_int seconds;
    trace;
    record = get "record" <> None;
  }

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type value = Float of float | Int of int

let print_metrics ~correct ~attempted ~failed metrics =
  let show = function Float f -> Printf.sprintf "%.17g" f | Int i -> string_of_int i in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-28s %s %s\n" name (show v) unit)
    metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (show v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let median_of f xs = Quant.median (List.map f xs)

let e2e_metrics ~setup_s ~passes =
  let counts = Workload.counts (List.hd passes) in
  let runs (p : Workload.pass) =
    List.map (fun (o : Workload.outcome) -> (o.job.pid, o.t1 -. o.t0)) p.outcomes
  in
  (* every pass and its pipeline latencies are scaled by the pass's quiet
     factor, which takes out the time other tenants of the host added *)
  let quiet = List.combine passes (Quant.quiet_factors (List.map runs passes)) in
  let walls = List.map (fun ((p : Workload.pass), q) -> p.wall *. q) quiet in
  let lat =
    List.concat_map (fun (p, q) -> List.map (fun (_, t) -> 1000.0 *. t *. q) (runs p)) quiet
  in
  let n = List.length lat in
  let tail_p, beyond =
    match Quant.tail_percentile n with Some pb -> pb | None -> (100.0, 0)
  in
  let per_pass = float_of_int (List.length (List.hd passes).outcomes) in
  let show xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs) in
  Printf.printf "# pipelines per pass %.0f, passes %d, latency samples %d\n"
    per_pass (List.length passes) n;
  Printf.printf "# pass walls (s): %s\n" (show (List.map (fun (p : Workload.pass) -> p.wall) passes));
  Printf.printf "# quiet factors: %s\n" (show (List.map snd quiet));
  Printf.printf "# pipeline_ms.tail is p%g of %d samples (%d beyond it)\n" tail_p n beyond;
  [
    ("setup_s", Float setup_s, "s");
    ("wall_s", Float (Quant.median walls), "s");
    ("pipelines_per_s", Float (median_of (fun w -> per_pass /. w) walls), "1/s");
    ( "sim_minsn_per_s",
      Float (median_of (fun w -> float_of_int counts.sim_insns /. w /. 1e6) walls),
      "Minsn/s" );
    ("pipeline_ms.p50", Float (Quant.percentile ~p:50.0 lat), "ms");
    ("pipeline_ms.tail", Float (Quant.percentile ~p:tail_p lat), "ms");
    ("peak_rss_mb", Float (peak_rss_mb ()), "MB");
    ("ipc_geomean", Float counts.ipc_geomean, "insn/cycle");
  ]

let layer_metrics kind ~build_s ~traced ~untraced =
  let counts = Workload.counts (fst (List.hd traced)) in
  let ls = List.map snd traced in
  let med f = Quant.median (List.map f ls) in
  let self_s name = med (fun l -> Workload.layer_get l.Workload.self_s name) in
  let self_mw name = med (fun l -> Workload.layer_get l.Workload.self_words name) /. 1e6 in
  let select =
    List.concat_map
      (fun lvl ->
        let tag = Pipeline.level_tag lvl in
        [
          ("core.select_s." ^ tag, Float (self_s ("core.select." ^ tag)), "s");
          ("core.select_mwords." ^ tag, Float (self_mw ("core.select." ^ tag)), "Mwords");
        ])
      Core.Heuristics.extended_levels
  in
  let sim_s = self_s "sim.simulate" in
  let sim_words = self_mw "sim.simulate" *. 1e6 in
  let f = float_of_int in
  let traced_passes = List.map fst traced in
  let busy (p : Workload.pass) =
    List.fold_left (fun acc (o : Workload.outcome) -> acc +. (o.t1 -. o.t0)) 0.0 p.outcomes
  in
  let capacity (p : Workload.pass) = f (Workload.workers kind) *. p.wall in
  let sched_get g =
    match (List.hd traced_passes).sched with Some s -> g s | None -> 0
  in
  let wall_t = median_of (fun (p : Workload.pass) -> p.wall) traced_passes in
  let wall_u = median_of (fun (p : Workload.pass) -> p.wall) untraced in
  [ ("workloads.build_s", Float build_s, "s") ]
  @ select
  @ [
      ("core.static_tasks", Int counts.static_tasks, "count");
      ("interp.execute_s", Float (self_s "interp.execute"), "s");
      ("interp.mwords", Float (self_mw "interp.execute"), "Mwords");
      ("interp.dyn_insns", Int counts.interp_insns, "count");
      ("interp.trace_bytes", Int counts.trace_bytes, "bytes");
      ("sim.prepare_s", Float (self_s "sim.prepare"), "s");
      ("sim.prepare_mwords", Float (self_mw "sim.prepare"), "Mwords");
      ("sim.simulate_s", Float sim_s, "s");
      ("sim.runs", Int counts.sim_runs, "count");
      ("sim.dyn_insns", Int counts.sim_insns, "count");
      ("sim.dyn_tasks", Int counts.sim_tasks, "count");
      ("sim.minsn_per_s", Float (f counts.sim_insns /. sim_s /. 1e6), "Minsn/s");
      ("sim.us_per_task", Float (sim_s /. f counts.sim_tasks *. 1e6), "us");
      ("sim.words_per_insn", Float (sim_words /. f counts.sim_insns), "words");
      ("sim.kwords_per_run", Float (sim_words /. f counts.sim_runs /. 1e3), "kwords");
      ("sim.reexec_ratio", Float (f counts.sim_violations /. f counts.sim_tasks), "ratio");
      ( "harness.pool.busy_frac",
        Float (median_of (fun p -> busy p /. capacity p) traced_passes),
        "ratio" );
      ( "harness.pool.idle_s",
        Float (median_of (fun p -> capacity p -. busy p) traced_passes),
        "s" );
      ("sched.tasks", Int (sched_get (fun s -> s.Sched.tasks)), "count");
      ("sched.steals", Int (sched_get (fun s -> s.Sched.steals)), "count");
      ("sched.parks", Int (sched_get (fun s -> s.Sched.parks)), "count");
      ("bench.trace_overhead_frac", Float ((wall_t /. wall_u) -. 1.0), "ratio");
    ]

(* Deterministic counts must repeat exactly from pass to pass; so must the
   per-layer allocation of serial traced passes. *)
let repeat_failures kind ~passes ~traced =
  let c0 = Workload.counts (List.hd passes) in
  let counts_bad =
    List.exists (fun p -> Workload.counts p <> c0) (List.tl passes)
  in
  let words_bad =
    Workload.workers kind = 1
    &&
    match traced with
    | [] -> false
    | (_, l0) :: rest ->
      let w (l : Workload.layers) =
        List.filter (fun (k, _) -> k <> "pipeline") l.self_words
      in
      List.exists (fun (_, l) -> w l <> w l0) rest
  in
  if counts_bad then prerr_endline "repeat check: deterministic counts differ between passes";
  if words_bad then prerr_endline "repeat check: serial per-layer words differ between passes";
  counts_bad || words_bad

let () =
  let a = parse Sys.argv in
  let kind = a.workload in
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (Unix.gettimeofday () -. t0, x)
  in
  (* set-up: input generation, keeping only the last repetition's inputs,
     and the start of a fresh scheduler of the pool's width; the pool's
     resident scheduler starts afterwards, untimed.
     No [Gc.full_major] between repetitions: on OCaml 5.1, thousands of
     them in a row made the heap of the later passes grow to hundreds of
     MB, which peak_rss_mb would then report. *)
  let inputs = ref [] and setup_spans = ref [] in
  let build () =
    inputs := [];
    let spans = if a.trace then Some (Spans.create ()) else None in
    let dt, x =
      time (fun () -> Workload.build_inputs ?spans ?corpus_seed:a.corpus_seed kind)
    in
    inputs := x;
    match spans with
    | None -> (dt, dt)
    | Some s ->
      setup_spans := Spans.spans s;
      (dt, Workload.layer_get (Workload.layers !setup_spans).self_s "workloads.build")
  in
  let sched_start () =
    match Workload.workers kind with
    | 1 -> 0.0
    | domains ->
      let dt, t = time (fun () -> Sched.create ~domains ()) in
      Sched.shutdown t;
      dt
  in
  let fastest = List.fold_left Float.min infinity in
  let round () =
    let start = Unix.gettimeofday () in
    let rec builds acc =
      let acc = build () :: acc in
      if Unix.gettimeofday () -. start < round_seconds then builds acc else acc
    in
    let b = builds [] in
    let sched = fastest (List.init round_sched_starts (fun _ -> sched_start ())) in
    (fastest (List.map fst b) +. sched, fastest (List.map snd b))
  in
  let rounds = List.init setup_rounds (fun _ -> round ()) in
  let inputs = !inputs in
  ignore (Workload.scheduler kind);
  let setup_s = median_of fst rounds in
  let build_s = median_of snd rounds in
  let jobs = Workload.jobs kind ~seed:a.seed inputs in
  if a.record then begin
    let pass = Workload.run_pass kind jobs in
    List.iter
      (fun r -> List.iter (fun (k, d) -> Printf.printf "%s %s\n" k d) (Workload.digests_of kind r))
      (List.sort
         (fun (x : Pipeline.result) y -> compare (x.job.input.name, x.job.level) (y.job.input.name, y.job.level))
         (Workload.results pass));
    exit 0
  end;
  let expected = Workload.expected ~dir:expected_dir kind jobs in
  (* measured loop; with --trace 1 every odd pass is traced *)
  let start = Unix.gettimeofday () in
  let rec loop i passes traced =
    let spans = if a.trace && i mod 2 = 1 then Some (Spans.create ()) else None in
    let pass = Workload.run_pass ?spans kind jobs in
    let passes = pass :: passes in
    let traced =
      match spans with
      | Some s -> (i, pass, Spans.spans s) :: traced
      | None -> traced
    in
    let elapsed = Unix.gettimeofday () -. start in
    if elapsed < a.seconds || i + 1 < min_passes then loop (i + 1) passes traced
    else (List.rev passes, List.rev traced)
  in
  let passes, traced = loop 0 [] [] in
  if a.trace then begin
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    Spans.write
      (Printf.sprintf "%s/spans-%s-seed%d.jsonl" out_dir (Workload.name kind) a.seed)
      ((-1, !setup_spans) :: List.map (fun (i, _, s) -> (i, s)) traced)
  end;
  let traced = List.map (fun (_, p, s) -> (p, Workload.layers s)) traced in
  let failed_jobs = List.concat_map (Workload.failures kind expected) passes in
  List.iteri
    (fun i ((job : Pipeline.job), msg) ->
      if i < 10 then Printf.eprintf "check failed: %s/%s: %s\n" job.input.name (Pipeline.level_tag job.level) msg)
    failed_jobs;
  let attempted = List.fold_left (fun acc (p : Workload.pass) -> acc + List.length p.outcomes) 0 passes in
  let failed = List.length failed_jobs in
  let repeat_bad = repeat_failures kind ~passes ~traced in
  let correct = failed = 0 && not repeat_bad in
  Printf.printf "# workload %s seed %d: %d pipelines attempted, %d failed, fail_ratio %g\n"
    (Workload.name kind) a.seed attempted failed (float_of_int failed /. float_of_int attempted);
  let ok_ratio = ("ok_ratio", Float (1.0 -. (float_of_int failed /. float_of_int attempted)), "ratio") in
  let metrics =
    if a.trace then
      layer_metrics kind ~build_s ~traced
        ~untraced:(List.filteri (fun i _ -> i mod 2 = 0) passes)
    else e2e_metrics ~setup_s ~passes @ [ ok_ratio ]
  in
  print_metrics ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
