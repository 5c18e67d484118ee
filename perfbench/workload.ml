(* The benchmark's workloads: inputs, pipeline lists, the measured loop,
   output checks and the metrics derived from them.

   Each workload is one closed loop of (program, level) pipelines: a pass
   hands the whole pipeline list to its workers and the next pipeline
   starts as soon as a worker frees up.  [paper-grid] fans out over
   [Harness.Pool.map] at two workers; the others run serially. *)

type kind = Paper_grid | Fb_search | Synth_short

let kinds = [ ("paper-grid", Paper_grid); ("fb-search", Fb_search);
              ("synth-short", Synth_short) ]

let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)
let of_name s = List.assoc_opt s kinds

(* Synthetic programs generated per corpus profile for [synth-short]. *)
let synth_per_profile = 4

(* The [synth-short] corpus is rooted at its own seed, fixed unless asked
   otherwise: corpora differ far more from each other (up to 5x in
   simulated instructions) than runs of one corpus do, so the run seed
   only orders the pipelines, as it does for the fixed suite. *)
let default_corpus_seed = 20261017

let levels = function
  | Paper_grid -> Core.Heuristics.all_levels
  | Fb_search -> [ Core.Heuristics.Feedback ]
  | Synth_short -> Core.Heuristics.extended_levels

let configs = function
  | Paper_grid -> Report.Figure5.configs
  | Fb_search -> [ (8, false) ]
  | Synth_short -> [ (4, true); (8, false) ]

let workers = function Paper_grid -> 2 | Fb_search | Synth_short -> 1

(* fb plans are checked on their task entries as well as their stats. *)
let with_entries = function Fb_search -> true | Paper_grid | Synth_short -> false

let now = Unix.gettimeofday

(* Build the workload's programs.  The suite workloads are fixed; the
   synthetic corpus is derived from [corpus_seed], one program seed per
   (profile, index) position. *)
let build_inputs ?spans ?(corpus_seed = default_corpus_seed) kind =
  let build name f =
    Spans.with_span spans ~name:"workloads.build" ~pipeline:(-1) (fun () ->
        { Pipeline.name; prog = f () })
  in
  match kind with
  | Paper_grid | Fb_search ->
    List.map
      (fun (e : Workloads.Registry.entry) -> build e.name e.build)
      Workloads.Suite.all
  | Synth_short ->
    List.concat
      (List.mapi
         (fun pi (profile : Workloads.Synth.Profile.t) ->
           List.init synth_per_profile (fun i ->
               let s =
                 Workloads.Synth.program_seed ~seed:corpus_seed
                   ~index:((pi * synth_per_profile) + i)
               in
               build
                 (Printf.sprintf "%s#%d" profile.name s)
                 (fun () -> Workloads.Synth.generate ~profile ~seed:s)))
         Workloads.Synth.Profile.all)

(* Every (program, level) pipeline, in an order drawn from [seed]. *)
let jobs kind ~seed inputs =
  let pairs =
    List.concat_map
      (fun input -> List.map (fun level -> (input, level)) (levels kind))
      inputs
  in
  let rng = Random.State.make [| seed |] in
  let a = Array.of_list pairs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list
    (Array.mapi
       (fun pid (input, level) ->
         { Pipeline.pid; input; level; configs = configs kind })
       a)

(* ---- expected outputs ---- *)

let expected_file ~dir kind = Filename.concat dir (name kind ^ ".digest")

let read_expected path =
  let tbl = Hashtbl.create 512 in
  let ic = open_in path in
  (try
     while true do
       match String.split_on_char ' ' (String.trim (input_line ic)) with
       | [ key; digest ] -> Hashtbl.replace tbl key digest
       | [ "" ] -> ()
       | _ -> failwith (path ^ ": malformed digest line")
     done
   with End_of_file -> close_in ic);
  tbl

let digests_of kind (r : Pipeline.result) =
  Pipeline.digests ~with_entries:(with_entries kind)
    ~task_entries:r.task_entries r.job r.sims

(* Expected digests for [jobs]: recorded ones for the fixed suite,
   reference-simulator ones for the seeded synthetic corpus. *)
let expected ~dir kind jobs =
  match kind with
  | Paper_grid | Fb_search -> read_expected (expected_file ~dir kind)
  | Synth_short ->
    let tbl = Hashtbl.create 512 in
    List.iter
      (fun job ->
        let plan, sims = Pipeline.run_reference job in
        List.iter
          (fun (k, d) -> Hashtbl.replace tbl k d)
          (Pipeline.digests ~with_entries:(with_entries kind)
             ~task_entries:(Pipeline.task_entries plan) job sims))
      jobs;
    tbl

(* ---- one pass ---- *)

type outcome = {
  job : Pipeline.job;
  result : (Pipeline.result, string) result;
  t0 : float;
  t1 : float;
}

type pass = { outcomes : outcome list; wall : float; sched : Sched.stats option }

let scheduler kind =
  if workers kind > 1 then Some (Harness.Pool.scheduler ~jobs:(workers kind))
  else None

let run_pass ?spans kind jobs =
  let one job =
    let t0 = now () in
    let result =
      match Pipeline.run ?spans job with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e)
    in
    { job; result; t0; t1 = now () }
  in
  let sched = scheduler kind in
  let before = Option.map Sched.stats sched in
  let t0 = now () in
  let outcomes =
    if workers kind > 1 then Harness.Pool.map ~jobs:(workers kind) one jobs
    else List.map one jobs
  in
  let wall = now () -. t0 in
  let sched =
    match (sched, before) with
    | Some s, Some b ->
      let a = Sched.stats s in
      Some
        {
          Sched.tasks = a.tasks - b.tasks;
          steals = a.steals - b.steals;
          injected = a.injected - b.injected;
          local = a.local - b.local;
          parks = a.parks - b.parks;
        }
    | _ -> None
  in
  { outcomes; wall; sched }

(* A pipeline fails when it raised or when any of its digests differs
   from (or is missing in) the expected table. *)
let failures kind expected pass =
  List.filter_map
    (fun o ->
      match o.result with
      | Error msg -> Some (o.job, msg)
      | Ok r ->
        List.find_map
          (fun (key, d) ->
            match Hashtbl.find_opt expected key with
            | Some e when String.equal e d -> None
            | Some e -> Some (r.job, Printf.sprintf "%s: digest %s, expected %s" key d e)
            | None -> Some (r.job, key ^ ": no expected digest"))
          (digests_of kind r))
    pass.outcomes

let results pass =
  List.filter_map
    (fun o -> match o.result with Ok r -> Some r | Error _ -> None)
    pass.outcomes

(* ---- deterministic counts ---- *)

type counts = {
  sim_runs : int;
  sim_insns : int;
  sim_tasks : int;
  sim_violations : int;
  interp_insns : int;
  trace_bytes : int;
  static_tasks : int;
  ipc_geomean : float;
}

let counts pass =
  let rs = results pass in
  let sims = List.concat_map (fun (r : Pipeline.result) -> r.sims) rs in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  {
    sim_runs = List.length sims;
    sim_insns = sum (fun (s : Pipeline.sim) -> s.stats.dyn_insns) sims;
    sim_tasks = sum (fun (s : Pipeline.sim) -> s.stats.tasks) sims;
    sim_violations = sum (fun (s : Pipeline.sim) -> s.stats.violations) sims;
    interp_insns = sum (fun (r : Pipeline.result) -> r.interp_steps) rs;
    trace_bytes = sum (fun (r : Pipeline.result) -> r.trace_bytes) rs;
    static_tasks = sum (fun (r : Pipeline.result) -> r.static_tasks) rs;
    ipc_geomean =
      (match sims with
       | [] -> nan
       | _ ->
         (* sorted, so the float sum does not depend on pipeline order *)
         Quant.geomean
           (List.sort Float.compare
              (List.map (fun (s : Pipeline.sim) -> Sim.Stats.ipc s.stats) sims)));
  }

(* ---- per-layer figures of a traced pass ---- *)

type layers = {
  self_s : (string * float) list;  (** self seconds per span name *)
  self_words : (string * float) list;  (** self words per span name *)
}

let layers spans =
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let time = Hashtbl.create 16 and words = Hashtbl.create 16 in
  List.iter
    (fun ((s : Spans.span), t, w) ->
      add time s.name t;
      add words s.name w)
    (Spans.self spans);
  let bindings tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  { self_s = bindings time; self_words = bindings words }

let layer_get l name = Option.value ~default:0.0 (List.assoc_opt name l)
