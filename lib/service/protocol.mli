(** Wire protocol of the [mscd] simulation service.

    Newline-delimited JSON over a Unix domain socket: one request object
    per line in, one response object per line out, in order.  A request
    carries a client-chosen [id] (echoed verbatim in the response, any
    JSON value) and an operation:

    {v
    {"id": 1, "op": "simulate", "workload": "compress", "level": "ts",
     "num_pus": 8, "in_order": false}
    v}

    Operations [simulate], [partition], [deps], [absint], [cost],
    [breakdown] and [lint] address one (workload, heuristic level) pipeline —
    levels are parsed by {!Core.Heuristics.level_of_string} (the short tag
    or the long name); [num_pus] (default 8) and
    [in_order] (default false) further select the machine for
    [simulate]/[breakdown].  [fuzz] runs a synthetic-corpus sweep through
    the {!Fuzz} oracle stack ([seed] default 42, [n] default 100 — the
    server clamps [n] to its own ceiling — and an optional [profile]
    name restricting the corpus).  [stats] reads the server's metrics and
    [shutdown] asks it to drain.

    Responses are [{"id", "ok": true, "dedup": bool, "micros": float,
    "result": ...}] on success — [dedup] reports whether the result was
    served from the request-level cache, [micros] is the server-side
    handling latency — or [{"id", "ok": false, "error": "..."}]. *)

type op =
  | Simulate of {
      workload : string;
      level : Core.Heuristics.level;
      num_pus : int;
      in_order : bool;
    }
  | Partition of { workload : string; level : Core.Heuristics.level }
  | Deps of { workload : string; level : Core.Heuristics.level }
  | Absint of { workload : string; level : Core.Heuristics.level }
  | Cost of { workload : string; level : Core.Heuristics.level }
  | Breakdown of {
      workload : string;
      level : Core.Heuristics.level;
      num_pus : int;
      in_order : bool;
    }
  | Lint of { workload : string; level : Core.Heuristics.level }
  | Fuzz of { seed : int; n : int; profile : string option }
  | Stats
  | Shutdown

type request = { id : Harness.Json.t; op : op }

val parse_request : string -> (request, string) result
(** Parse one wire line.  Unknown [op] tags, unknown level tags and
    missing required fields are [Error]s naming the offence; a missing
    [id] defaults to [Null]. *)

val op_to_json : op -> Harness.Json.t
(** Re-encode an operation as the request object (without [id]) —
    clients build requests with this. *)

val key : op -> string option
(** Request-level dedup key: equal keys mean interchangeable responses.
    [None] for [Stats]/[Shutdown], which must never be cached. *)

val ok_response :
  id:Harness.Json.t -> dedup:bool -> micros:float -> Harness.Json.t -> string
(** Single-line success response (no trailing newline). *)

val error_response : id:Harness.Json.t -> string -> string
(** Single-line failure response (no trailing newline). *)
