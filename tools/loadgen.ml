(* Load-test driver for the mscd simulation service.

   C client threads, each with its own connection and its own
   deterministically seeded RNG, fire a weighted mix of requests drawn
   from a small (workload x level x machine) key space — small on
   purpose, so the server's request-level dedup cache gets hit the way a
   fleet of experiment scripts would hit it.  Client-side latencies land
   in per-thread Harness.Stat.Histogram instances (merged at the end),
   and the run closes with a server `stats` request so the report shows
   both sides.  Exit status is non-zero if any request failed. *)

module Json = Harness.Json
module Hist = Harness.Stat.Histogram

let socket = ref "/tmp/mscd.sock"
let total = ref 600
let clients = ref 8
let seed = ref 42
let json_out = ref ""

let args =
  [
    ("--socket", Arg.Set_string socket, "PATH mscd socket (default /tmp/mscd.sock)");
    ("-n", Arg.Set_int total, "N total requests across all clients (default 600)");
    ("-c", Arg.Set_int clients, "N concurrent client connections (default 8)");
    ("--seed", Arg.Set_int seed, "N RNG seed (default 42)");
    ("--json", Arg.Set_string json_out, "FILE write the machine-readable report here");
  ]

let workloads = [| "compress"; "li"; "go"; "swim" |]
let levels =
  [|
    Core.Heuristics.Basic_block;
    Core.Heuristics.Control_flow;
    Core.Heuristics.Data_dependence;
    Core.Heuristics.Task_size;
  |]

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

(* simulate-heavy mix: the op a fleet of sweep scripts sends most *)
let random_op rng =
  let workload = pick rng workloads in
  let level = pick rng levels in
  let num_pus = if Random.State.bool rng then 8 else 4 in
  match Random.State.int rng 10 with
  | 0 -> Service.Protocol.Partition { workload; level }
  | 1 -> Service.Protocol.Deps { workload; level }
  | 2 -> Service.Protocol.Cost { workload; level }
  | 3 ->
    Service.Protocol.Breakdown { workload; level; num_pus; in_order = false }
  | _ ->
    Service.Protocol.Simulate
      { workload; level; num_pus; in_order = Random.State.int rng 4 = 0 }

type client_tally = {
  hist : Hist.t;
  mutable sent : int;
  mutable failed : int;
  mutable dedup : int;
}

let run_client ~id ~count =
  let tally =
    { hist = Hist.create (); sent = 0; failed = 0; dedup = 0 }
  in
  let rng = Random.State.make [| !seed; id |] in
  (match Service.Client.connect ~socket:!socket with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "loadgen: client %d cannot connect: %s\n%!" id
      (Unix.error_message e);
    tally.sent <- count;
    tally.failed <- count
  | conn ->
    for i = 0 to count - 1 do
      let op = random_op rng in
      let t0 = Unix.gettimeofday () in
      let r = Service.Client.request conn ~id:(Json.Int ((id * 1000000) + i)) op in
      Hist.add tally.hist ((Unix.gettimeofday () -. t0) *. 1e6);
      tally.sent <- tally.sent + 1;
      match r with
      | Error msg ->
        tally.failed <- tally.failed + 1;
        Printf.eprintf "loadgen: client %d request %d failed: %s\n%!" id i msg
      | Ok resp ->
        if Json.member "dedup" resp = Some (Json.Bool true) then
          tally.dedup <- tally.dedup + 1
    done;
    Service.Client.close conn);
  tally

let () =
  Arg.parse args
    (fun s -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" s)))
    "loadgen [options]: drive a running mscd with a deterministic request mix";
  let clients = max 1 !clients in
  let total = max clients !total in
  let per_client = total / clients and extra = total mod clients in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun id ->
        let count = per_client + if id < extra then 1 else 0 in
        let cell = ref None in
        let th = Thread.create (fun () -> cell := Some (run_client ~id ~count)) () in
        (th, cell))
  in
  let tallies =
    List.filter_map
      (fun (th, cell) ->
        Thread.join th;
        !cell)
      threads
  in
  let wall = Unix.gettimeofday () -. t0 in
  let hist =
    List.fold_left (fun acc t -> Hist.merge acc t.hist) (Hist.create ()) tallies
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let sent = sum (fun t -> t.sent)
  and failed = sum (fun t -> t.failed)
  and dedup = sum (fun t -> t.dedup) in
  (* one more connection for the server-side view of the same run *)
  let server_stats =
    match Service.Client.connect ~socket:!socket with
    | exception Unix.Unix_error _ -> Json.Null
    | conn ->
      let r = Service.Client.request conn Service.Protocol.Stats in
      Service.Client.close conn;
      (match r with
      | Ok resp -> Option.value ~default:Json.Null (Json.member "result" resp)
      | Error _ -> Json.Null)
  in
  let p q = Hist.percentile hist q in
  Printf.printf
    "loadgen: %d requests on %d connections in %.2fs (%.0f req/s)\n\
     errors %d, client-observed dedup %d\n\
     latency us: p50 %.0f  p90 %.0f  p99 %.0f  mean %.0f\n"
    sent clients wall
    (float_of_int sent /. Float.max 1e-9 wall)
    failed dedup (p 50.0) (p 90.0) (p 99.0) (Hist.mean hist);
  (match Json.member "dedup_hits" server_stats with
  | Some (Json.Int h) -> Printf.printf "server dedup_hits: %d\n" h
  | _ -> ());
  if !json_out <> "" then begin
    let report =
      Json.Obj
        [
          ("requests", Json.Int sent);
          ("clients", Json.Int clients);
          ("seconds", Json.Float wall);
          ("errors", Json.Int failed);
          ("client_dedup", Json.Int dedup);
          ("latency", Hist.to_json hist);
          ("server", server_stats);
        ]
    in
    Json.to_file !json_out report
  end;
  exit (if failed > 0 then 1 else 0)
