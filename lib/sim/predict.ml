let mix pc = (pc * 2654435761) land max_int

(* Both tables are Occ.Pages of one-int rows: a run touches a small part
   of the 64K entries, and only the pages it reaches are allocated. *)

module Gshare = struct
  type t = {
    mask : int;
    hist_mask : int;
    mutable hist : int;
    table : Occ.Pages.t;  (* 2-bit counters, initialised weakly taken *)
  }

  let create (cfg : Config.t) =
    {
      mask = cfg.Config.predictor_entries - 1;
      hist_mask = (1 lsl cfg.Config.predictor_bits) - 1;
      hist = 0;
      table =
        Occ.Pages.create ~rows:cfg.Config.predictor_entries ~width:1
          ~init:(fun _ -> 2);
    }

  let predict_and_update t ~pc ~taken =
    let idx = (mix pc lxor t.hist) land t.mask in
    let page = Occ.Pages.page t.table idx in
    let i = Occ.Pages.offset t.table idx in
    let counter = page.(i) in
    let predicted = counter >= 2 in
    let correct = predicted = taken in
    page.(i) <-
      (if taken then Int.min 3 (counter + 1) else Int.max 0 (counter - 1));
    t.hist <- ((t.hist lsl 1) lor (if taken then 1 else 0)) land t.hist_mask;
    correct
end

module Target = struct
  type t = {
    mask : int;
    hist_mask : int;
    use_history : bool;
    mutable hist : int;
    (* packed entries: counter lsl 2 | target (2-bit confidence, 2-bit
       target number) — one int per entry instead of a record per slot *)
    table : Occ.Pages.t;
  }

  let create ?(use_history = true) (cfg : Config.t) =
    {
      mask = cfg.Config.predictor_entries - 1;
      hist_mask = (1 lsl cfg.Config.predictor_bits) - 1;
      use_history;
      hist = 0;
      table =
        Occ.Pages.create ~rows:cfg.Config.predictor_entries ~width:1
          ~init:(fun _ -> 0);
    }

  let predict_and_update t ~pc ~actual =
    let idx =
      (if t.use_history then mix pc lxor t.hist else mix pc) land t.mask
    in
    let page = Occ.Pages.page t.table idx in
    let i = Occ.Pages.offset t.table idx in
    let e = page.(i) in
    let counter = e lsr 2 and target = e land 3 in
    let correct = target = actual land 3 && actual < 4 in
    (if target = actual land 3 then
       page.(i) <- (Int.min 3 (counter + 1) lsl 2) lor target
     else if counter > 0 then page.(i) <- ((counter - 1) lsl 2) lor target
     else page.(i) <- actual land 3);
    (* path history: fold the chosen target and the task pc in *)
    t.hist <- ((t.hist lsl 2) lxor mix pc lxor actual) land t.hist_mask;
    correct
end

module Ras = struct
  (* a ring of [capacity] entries; [top] is the slot the next push fills,
     and a push onto a full stack overwrites the oldest entry *)
  type t = {
    buf : int array;
    mutable top : int;
    mutable size : int;
  }

  let create capacity =
    if capacity < 1 then
      invalid_arg (Printf.sprintf "Predict.Ras.create: capacity %d" capacity);
    { buf = Array.make capacity 0; top = 0; size = 0 }

  let push t v =
    let cap = Array.length t.buf in
    t.buf.(t.top) <- v;
    t.top <- (if t.top + 1 = cap then 0 else t.top + 1);
    if t.size < cap then t.size <- t.size + 1

  let pop_or t default =
    if t.size = 0 then default
    else begin
      t.top <- (if t.top = 0 then Array.length t.buf - 1 else t.top - 1);
      t.size <- t.size - 1;
      t.buf.(t.top)
    end

  let pop t = if t.size = 0 then None else Some (pop_or t 0)
  let depth t = t.size
end
