(* Order statistics for the benchmark's reported timings. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Quant.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* 1-based nearest-rank index of percentile [p] among [n] samples; [p] is
   taken to a tenth of a percent, in integers, so 99.9 of 10000 is 9990. *)
let rank ~p n =
  let tenths = int_of_float (Float.round (p *. 10.0)) in
  max 1 (((tenths * n) + 999) / 1000)

let percentile ~p xs =
  match sorted xs with
  | [] -> invalid_arg "Quant.percentile: no samples"
  | s -> List.nth s (min (List.length s) (rank ~p (List.length s)) - 1)

(* The "nines" ladder.  Its wide gaps keep a run's choice steady while
   its sample count varies from run to run. *)
let tail_candidates = [ 99.9; 99.0; 90.0; 50.0 ]

(* The highest candidate percentile with at least [min_beyond] samples
   strictly above its rank, with that count; [None] when even the median
   leaves fewer. *)
let tail_percentile ?(min_beyond = 10) n =
  List.find_map
    (fun p ->
      let beyond = n - rank ~p n in
      if beyond >= min_beyond then Some (p, beyond) else None)
    tail_candidates

let geomean = function
  | [] -> invalid_arg "Quant.geomean: no samples"
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* How much faster each pass would have run without the host's
   interference.  [passes] holds each pass's (pipeline id, seconds) runs.
   A pipeline's cost is its fastest run over all passes: on a shared host,
   other tenants only ever add time, in bursts of seconds to minutes.  A
   pass's factor is the sum of those costs over the sum of its own
   pipeline times, at most 1.  Scaling a pass's wall by it keeps the
   pass's own share of idle and scheduling time. *)
let quiet_factors passes =
  let best = Hashtbl.create 256 in
  List.iter
    (List.iter (fun (id, t) ->
         match Hashtbl.find_opt best id with
         | Some b when b <= t -> ()
         | _ -> Hashtbl.replace best id t))
    passes;
  List.map
    (fun runs ->
      let sum f = List.fold_left (fun acc (id, t) -> acc +. f id t) 0.0 runs in
      sum (fun id _ -> Hashtbl.find best id) /. sum (fun _ t -> t))
    passes
