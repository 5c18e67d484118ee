(* In-memory span recorder for the traced run.

   A span covers one call into a layer made by the benchmark's own code:
   name, wall-clock start and end, the enclosing span and the pipeline it
   belongs to, plus the words the calling domain allocated meanwhile
   ([Gc.counters] is domain-local, so the count stays exact while several
   domains run pipelines).  Each domain appends to its own buffer; the
   buffers are only read after the recorded work has been joined. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, or -1 *)
  pipeline : int;
  t0 : float;
  t1 : float;
  words : float;  (** words allocated by the domain inside the span *)
}

type buffer = { mutable spans : span list; mutable stack : int list }

type t = {
  next_id : int Atomic.t;
  mu : Mutex.t;
  mutable buffers : buffer list;
  key : buffer option ref Domain.DLS.key;
}

let create () =
  {
    next_id = Atomic.make 0;
    mu = Mutex.create ();
    buffers = [];
    key = Domain.DLS.new_key (fun () -> ref None);
  }

let buffer t =
  let slot = Domain.DLS.get t.key in
  match !slot with
  | Some b -> b
  | None ->
    let b = { spans = []; stack = [] } in
    Mutex.lock t.mu;
    t.buffers <- b :: t.buffers;
    Mutex.unlock t.mu;
    slot := Some b;
    b

(* Words allocated so far by this domain: minor-heap words plus words
   allocated directly in the major heap (major minus promoted).  The minor
   part comes from [Gc.minor_words], since the minor figure of
   [Gc.counters] undercounts the current minor heap on OCaml 5.1. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let record t ~name ~pipeline f =
  let b = buffer t in
  let id = Atomic.fetch_and_add t.next_id 1 in
  let parent = match b.stack with p :: _ -> p | [] -> -1 in
  b.stack <- id :: b.stack;
  let w0 = allocated () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    let words = allocated () -. w0 in
    b.stack <- List.tl b.stack;
    b.spans <- { id; name; parent; pipeline; t0; t1; words } :: b.spans
  in
  Fun.protect ~finally:finish f

(* [with_span None] is the untraced path: the call runs bare. *)
let with_span t ~name ~pipeline f =
  match t with None -> f () | Some t -> record t ~name ~pipeline f

let spans t =
  Mutex.lock t.mu;
  let all = List.concat_map (fun b -> b.spans) t.buffers in
  Mutex.unlock t.mu;
  List.sort (fun a b -> compare a.id b.id) all

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time and self words of every span: its own duration and allocation
   minus what its direct children account for.  Time subtracts the part of
   the span's interval the children cover; words subtract the children's
   words, which the parent's counter delta already contains. *)
let self spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let time =
        s.t1 -. s.t0
        -. covered ~lo:s.t0 ~hi:s.t1 (List.map (fun k -> (k.t0, k.t1)) kids)
      in
      let words =
        s.words -. List.fold_left (fun acc k -> acc +. k.words) 0.0 kids
      in
      (s, time, words))
    spans

let to_json ~pass s =
  Printf.sprintf
    "{\"pass\":%d,\"id\":%d,\"name\":%S,\"parent\":%d,\"pipeline\":%d,\"start\":%.6f,\"end\":%.6f,\"words\":%.0f}"
    pass s.id s.name s.parent s.pipeline s.t0 s.t1 s.words

(* One JSON object per line, for every (pass, spans) group. *)
let write path groups =
  let oc = open_out path in
  List.iter
    (fun (pass, spans) ->
      List.iter (fun s -> output_string oc (to_json ~pass s ^ "\n")) spans)
    groups;
  close_out oc
