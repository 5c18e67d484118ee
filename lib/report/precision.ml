(* Flow-sensitive refinement precision: per workload × heuristic level,
   the cross-task memory edges the Analysis.Absint refinement prunes
   relative to the flow-insensitive baseline, the sites whose regions it
   bounds, and the busiest partition cell (the "top alias" region every
   wide site falls into).  This is the paper-facing payoff table of the
   abstract-interpretation engine: fewer predicted store→load task pairs
   means fewer speculative memory conflicts the hardware must squash. *)

type row = {
  workload : string;
  kind : Workloads.Registry.kind;
  level : Core.Heuristics.level;
  sites : int;             (** static memory sites across the program *)
  fi_edges : int;          (** mem edges from the flow-insensitive regions *)
  ab_edges : int;          (** mem edges from the refined regions *)
  unbounded : int;         (** refined sites with no finite width *)
  fi_unbounded : int;      (** baseline sites with no finite width *)
  widest : Harness.Job.wide_site list;  (** top refined sites by width *)
  top_cell : string;       (** busiest partition cell, rendered *)
  top_cell_sites : int;    (** refined sites intersecting that cell *)
  ai : Analysis.Memdep.ai_stats;
}

(* The partition cell whose region intersects the most refined sites —
   ties broken toward the lowest cell (deterministic).  Cells covering
   the whole line still count: a saturated analysis reports them. *)
let busiest_cell summary prog =
  let cells = Analysis.Memdep.partition summary in
  let counts = Array.make (Array.length cells) 0 in
  List.iter
    (fun fname ->
      List.iter
        (fun (s : Analysis.Memdep.site) ->
          Array.iteri
            (fun i cell ->
              if Analysis.Memdep.may_intersect s.Analysis.Memdep.region cell
              then counts.(i) <- counts.(i) + 1)
            cells)
        (Analysis.Memdep.sites summary fname))
    (Ir.Prog.func_names prog);
  let best = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!best) then best := i) counts;
  if Array.length cells = 0 then ("-", 0)
  else (Analysis.Memdep.value_to_string cells.(!best), counts.(!best))

let row_of_artifact (art : Harness.Artifact.artifact) =
  let plan = art.Harness.Artifact.plan in
  let prog = plan.Core.Partition.prog in
  let dep = Core.Depend.analyze plan in
  let summary = Core.Depend.summary dep in
  let fi_dep = Core.Depend.analyze ~fi:true ~summary plan in
  let unbounded, fi_unbounded, widest =
    Harness.Job.precision_of_summary prog summary
  in
  let sites =
    List.fold_left
      (fun acc fname ->
        acc + List.length (Analysis.Memdep.sites summary fname))
      0
      (Ir.Prog.func_names prog)
  in
  let top_cell, top_cell_sites = busiest_cell summary prog in
  {
    workload = art.Harness.Artifact.key.Harness.Artifact.workload;
    kind = art.Harness.Artifact.kind;
    level = art.Harness.Artifact.key.Harness.Artifact.level;
    sites;
    fi_edges = List.length (Core.Depend.mem_edges fi_dep);
    ab_edges = List.length (Core.Depend.mem_edges dep);
    unbounded;
    fi_unbounded;
    widest;
    top_cell;
    top_cell_sites;
    ai = Analysis.Memdep.ai_stats summary;
  }

let run ~store ?jobs ?(levels = Core.Heuristics.all_levels) entries =
  let cells =
    List.concat_map
      (fun entry -> List.map (fun level -> (entry, level)) levels)
      entries
  in
  Harness.Pool.map ?jobs
    (fun (entry, level) ->
      row_of_artifact (Harness.Artifact.get store ~level entry))
    cells

let pruned r = r.fi_edges - r.ab_edges

let pruned_pct r =
  if r.fi_edges = 0 then 0.0
  else 100.0 *. float_of_int (pruned r) /. float_of_int r.fi_edges

(* Suite totals: the acceptance gate is [ab < fi] over the whole suite. *)
let totals rows =
  List.fold_left (fun (fi, ab) r -> (fi + r.fi_edges, ab + r.ab_edges)) (0, 0)
    rows

let pp ppf rows =
  Format.fprintf ppf
    "@[<v>Flow-sensitive refinement: memory edges pruned vs baseline@,";
  Format.fprintf ppf "%-10s %-3s %6s %6s %6s %7s %7s %6s %5s %5s@,"
    "workload" "lvl" "sites" "fiE" "abE" "pruned" "prune%" "unbnd" "satur"
    "outer";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-10s %-3s %6d %6d %6d %7d %7.1f %6d %5d %5d@," r.workload
        (Core.Heuristics.level_tag r.level)
        r.sites r.fi_edges r.ab_edges (pruned r) (pruned_pct r) r.unbounded
        r.ai.Analysis.Memdep.saturated_cells
        r.ai.Analysis.Memdep.outer_rounds)
    rows;
  let fi, ab = totals rows in
  Format.fprintf ppf "@,total: fi %d -> ab %d (%d pruned, %.1f%%)@," fi ab
    (fi - ab)
    (if fi = 0 then 0.0
     else 100.0 *. float_of_int (fi - ab) /. float_of_int fi);
  (match
     List.filter (fun r -> r.top_cell_sites > 0) rows
     |> List.sort (fun a b ->
            compare
              (b.top_cell_sites, a.workload, a.level)
              (a.top_cell_sites, b.workload, b.level))
   with
  | [] -> ()
  | top :: _ ->
    Format.fprintf ppf
      "top alias region: %s (%d sites, %s/%s)@," top.top_cell
      top.top_cell_sites top.workload
      (Core.Heuristics.level_tag top.level));
  Format.fprintf ppf "@]"

let to_json rows =
  let fi, ab = totals rows in
  Harness.Json.Obj
    [
      ( "precision",
        Harness.Json.List
          (List.map
             (fun r ->
               Harness.Json.Obj
                 [
                   ("workload", Harness.Json.String r.workload);
                   ( "kind",
                     Harness.Json.String
                       (Workloads.Registry.kind_name r.kind) );
                   ( "level",
                     Harness.Json.String (Core.Heuristics.level_tag r.level) );
                   ("sites", Harness.Json.Int r.sites);
                   ("fi_mem_edges", Harness.Json.Int r.fi_edges);
                   ("mem_edges", Harness.Json.Int r.ab_edges);
                   ("pruned", Harness.Json.Int (pruned r));
                   ("unbounded_sites", Harness.Json.Int r.unbounded);
                   ("fi_unbounded_sites", Harness.Json.Int r.fi_unbounded);
                   ( "widest",
                     Harness.Json.List
                       (List.map
                          (fun (w : Harness.Job.wide_site) ->
                            Harness.Json.Obj
                              [
                                ("fn", Harness.Json.String w.Harness.Job.w_fn);
                                ("blk", Harness.Json.Int w.Harness.Job.w_blk);
                                ("idx", Harness.Json.Int w.Harness.Job.w_idx);
                                ( "store",
                                  Harness.Json.Bool w.Harness.Job.w_store );
                                ( "width",
                                  Harness.Json.Int w.Harness.Job.w_width );
                              ])
                          r.widest) );
                   ("top_cell", Harness.Json.String r.top_cell);
                   ("top_cell_sites", Harness.Json.Int r.top_cell_sites);
                   ( "ai",
                     Harness.Json.Obj
                       [
                         ( "updates",
                           Harness.Json.Int r.ai.Analysis.Memdep.updates );
                         ( "widenings",
                           Harness.Json.Int r.ai.Analysis.Memdep.widenings );
                         ( "narrowed",
                           Harness.Json.Int r.ai.Analysis.Memdep.narrowed );
                         ( "outer_rounds",
                           Harness.Json.Int r.ai.Analysis.Memdep.outer_rounds
                         );
                         ( "saturated_cells",
                           Harness.Json.Int
                             r.ai.Analysis.Memdep.saturated_cells );
                       ] );
                 ])
             rows) );
      ( "total",
        Harness.Json.Obj
          [
            ("fi_mem_edges", Harness.Json.Int fi);
            ("mem_edges", Harness.Json.Int ab);
            ("pruned", Harness.Json.Int (fi - ab));
          ] );
    ]
