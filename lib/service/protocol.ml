module Json = Harness.Json

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

let ( let* ) = Result.bind

let field name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let string_field name json =
  let* v = field name json in
  match v with
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let workload_level json =
  let* workload = string_field "workload" json in
  let* level_s = string_field "level" json in
  let* level = Core.Heuristics.level_of_string level_s in
  Ok (workload, level)

let machine json =
  (* optional machine selection with the repo's canonical defaults *)
  let* num_pus =
    match Json.member "num_pus" json with
    | None -> Ok 8
    | Some (Json.Int n) when n >= 1 -> Ok n
    | Some _ -> Error "field \"num_pus\" must be a positive integer"
  in
  let* in_order =
    match Json.member "in_order" json with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "field \"in_order\" must be a boolean"
  in
  Ok (num_pus, in_order)

let parse_request line =
  let* json = Json.parse line in
  let id = Option.value ~default:Json.Null (Json.member "id" json) in
  let* tag = string_field "op" json in
  let* op =
    match tag with
    | "simulate" ->
      let* workload, level = workload_level json in
      let* num_pus, in_order = machine json in
      Ok (Simulate { workload; level; num_pus; in_order })
    | "partition" ->
      let* workload, level = workload_level json in
      Ok (Partition { workload; level })
    | "deps" ->
      let* workload, level = workload_level json in
      Ok (Deps { workload; level })
    | "absint" ->
      let* workload, level = workload_level json in
      Ok (Absint { workload; level })
    | "cost" ->
      let* workload, level = workload_level json in
      Ok (Cost { workload; level })
    | "breakdown" ->
      let* workload, level = workload_level json in
      let* num_pus, in_order = machine json in
      Ok (Breakdown { workload; level; num_pus; in_order })
    | "lint" ->
      let* workload, level = workload_level json in
      Ok (Lint { workload; level })
    | "fuzz" ->
      let* seed =
        match Json.member "seed" json with
        | None -> Ok 42
        | Some (Json.Int s) -> Ok s
        | Some _ -> Error "field \"seed\" must be an integer"
      in
      let* n =
        match Json.member "n" json with
        | None -> Ok 100
        | Some (Json.Int n) when n >= 1 -> Ok n
        | Some _ -> Error "field \"n\" must be a positive integer"
      in
      let* profile =
        match Json.member "profile" json with
        | None -> Ok None
        | Some (Json.String p) -> Ok (Some p)
        | Some _ -> Error "field \"profile\" must be a string"
      in
      Ok (Fuzz { seed; n; profile })
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | s -> Error (Printf.sprintf "unknown op %S" s)
  in
  Ok { id; op }

let op_to_json op =
  let wl tag workload level extra =
    Json.Obj
      (("op", Json.String tag)
       :: ("workload", Json.String workload)
       :: ("level", Json.String (Core.Heuristics.level_tag level))
       :: extra)
  in
  match op with
  | Simulate { workload; level; num_pus; in_order } ->
    wl "simulate" workload level
      [ ("num_pus", Json.Int num_pus); ("in_order", Json.Bool in_order) ]
  | Partition { workload; level } -> wl "partition" workload level []
  | Deps { workload; level } -> wl "deps" workload level []
  | Absint { workload; level } -> wl "absint" workload level []
  | Cost { workload; level } -> wl "cost" workload level []
  | Breakdown { workload; level; num_pus; in_order } ->
    wl "breakdown" workload level
      [ ("num_pus", Json.Int num_pus); ("in_order", Json.Bool in_order) ]
  | Lint { workload; level } -> wl "lint" workload level []
  | Fuzz { seed; n; profile } ->
    Json.Obj
      (("op", Json.String "fuzz")
       :: ("seed", Json.Int seed)
       :: ("n", Json.Int n)
       ::
       (match profile with
       | Some p -> [ ("profile", Json.String p) ]
       | None -> []))
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]

let key op =
  match op with
  | Stats | Shutdown -> None
  | _ ->
    (* the request object itself, minus id, printed canonically *)
    Some (Json.to_string ~indent:false (op_to_json op))

let ok_response ~id ~dedup ~micros result =
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool true);
         ("dedup", Json.Bool dedup);
         ("micros", Json.Float micros);
         ("result", result);
       ])

let error_response ~id msg =
  Json.to_string ~indent:false
    (Json.Obj
       [ ("id", id); ("ok", Json.Bool false); ("error", Json.String msg) ])
