(* Per-task pipeline timing — the event-driven, structure-of-arrays core.

   One [ctx] is allocated per simulation run and reused for every attempt
   of every dynamic task instance: all per-attempt state lives in flat int
   arrays and mutable ctx fields invalidated by a generation bump, and
   every helper on the hot path is a top-level function fully applied to
   the context (an inner closure would re-box the scheduler state on each
   attempt).  An attempt allocates only when a scratch array first has to
   grow past the largest attempt seen so far.  Issue and commit bandwidth
   are generation-stamped occupancy windows indexed by cycle relative to
   the attempt's [start_fetch] (value = gen lsl 8 | count), so they span
   the longest attempt, not the whole run; instead of re-probing a
   hashtable cycle by cycle, the scheduler jumps to the next cycle with a
   free slot.  Sites are packed into single ints
   (fid lsl 36 | blk lsl 16 | idx) and the loads / stores / event-entry
   results are growable parallel int arrays.  The engine drives [exec]
   through a [hooks] record created once per run. *)

(* packed sites: fid lsl 36 | blk lsl 16 | idx *)
let pack_site ~fid ~blk ~idx = (fid lsl 36) lor (blk lsl 16) lor idx
let site_fid p = p lsr 36
let site_blk p = (p lsr 16) land 0xFFFFF
let site_idx p = p land 0xFFFF

(* Inter-task inputs, provided by the engine once per run; the closures
   read mutable engine state (current task index, assignment time), so no
   per-attempt environment is ever allocated.  [h_mem_dep] answers -1
   when no older task writes the address, else (avail lsl 1) lor synced. *)
type hooks = {
  h_reg_avail : Ir.Reg.t -> int;
  h_mem_dep : addr:int -> load_site:int -> int;
  h_load_lat : addr:int -> int;
  h_mem_slot : addr:int -> at:int -> int;
  h_ifetch_extra : fid:int -> blk:Ir.Block.label -> int;
  h_cond_pred : pc:int -> taken:bool -> bool;
  h_switch_pred : pc:int -> actual:int -> bool;
}

type ctx = {
  cfg : Config.t;
  trace : Interp.Trace.t;
  layout : Layout.t;
  (* functional-unit pools: next cycle each unit can accept an op *)
  units_int : int array;
  units_fp : int array;
  units_mem : int array;
  units_branch : int array;
  rob : int array;
  iq : int array;
  (* generation-stamped bandwidth windows indexed by cycle - slot_base;
     slot value = gen lsl 8 | count, stale generations read as 0 *)
  mutable issue_slots : int array;
  mutable commit_slots : int array;
  mutable gen : int;
  mutable slot_base : int;  (* start_fetch of the current attempt *)
  (* register state *)
  local_time : int array;   (* completion time of the last local write; -1 none *)
  local_site : int array;   (* packed site of that write *)
  avail_cache : int array;  (* memoized h_reg_avail, -1 unqueried *)
  (* local store->load forwarding and the distinct-address ARB footprint *)
  local_store : Occ.Intmap.t;
  addr_seen : Occ.Intmap.t;
  (* result: loads / stores as parallel arrays, in program order *)
  mutable l_addr : int array;
  mutable l_time : int array;
  mutable l_site : int array;
  mutable n_loads : int;
  mutable s_addr : int array;
  mutable s_time : int array;
  mutable s_site : int array;
  mutable n_stores : int;
  mutable event_entry : int array;  (* valid [0, n_events_inst) *)
  mutable n_events_inst : int;
  (* in-flight scheduler state of the current attempt *)
  mutable h : hooks;
  mutable mem_hold : int;
  mutable fetch_time : int;
  mutable fetch_in_cycle : int;
  mutable insn_counter : int;
  mutable last_commit : int;
  mutable last_issue : int;
  (* scalar results of the last exec *)
  mutable complete : int;
  mutable resolve : int;
  mutable dyn_insns : int;
  mutable intra_branches : int;
  mutable intra_mispredicts : int;
  mutable distinct_addrs : int;
  mutable inter_wait : int;
  mutable intra_wait : int;
  mutable sync_waits : int;
}

let null_hooks =
  {
    h_reg_avail = (fun _ -> 0);
    h_mem_dep = (fun ~addr:_ ~load_site:_ -> -1);
    h_load_lat = (fun ~addr:_ -> 0);
    h_mem_slot = (fun ~addr:_ ~at -> at);
    h_ifetch_extra = (fun ~fid:_ ~blk:_ -> 0);
    h_cond_pred = (fun ~pc:_ ~taken:_ -> true);
    h_switch_pred = (fun ~pc:_ ~actual:_ -> true);
  }

(* Slot counts live in the low 8 bits of a window entry, and a count
   reaches [issue_width] before the cycle is full. *)
let create (cfg : Config.t) trace layout =
  let w = cfg.Config.issue_width in
  if w < 1 || w > 255 then
    invalid_arg
      (Printf.sprintf "Timing.create: issue_width %d outside 1..255" w);
  {
    cfg;
    trace;
    layout;
    units_int = Array.make cfg.Config.fu_int 0;
    units_fp = Array.make cfg.Config.fu_fp 0;
    units_mem = Array.make cfg.Config.fu_mem 0;
    units_branch = Array.make cfg.Config.fu_branch 0;
    rob = Array.make cfg.Config.rob_size 0;
    iq = Array.make cfg.Config.iq_size 0;
    issue_slots = Array.make 256 0;
    commit_slots = Array.make 256 0;
    gen = 0;
    slot_base = 0;
    local_time = Array.make Ir.Reg.count (-1);
    local_site = Array.make Ir.Reg.count 0;
    avail_cache = Array.make Ir.Reg.count (-1);
    local_store = Occ.Intmap.create 64;
    addr_seen = Occ.Intmap.create 64;
    l_addr = Array.make 64 0;
    l_time = Array.make 64 0;
    l_site = Array.make 64 0;
    n_loads = 0;
    s_addr = Array.make 64 0;
    s_time = Array.make 64 0;
    s_site = Array.make 64 0;
    n_stores = 0;
    event_entry = Array.make 64 0;
    n_events_inst = 0;
    h = null_hooks;
    mem_hold = 0;
    fetch_time = 0;
    fetch_in_cycle = 0;
    insn_counter = 0;
    last_commit = 0;
    last_issue = 0;
    complete = 0;
    resolve = 0;
    dyn_insns = 0;
    intra_branches = 0;
    intra_mispredicts = 0;
    distinct_addrs = 0;
    inter_wait = 0;
    intra_wait = 0;
    sync_waits = 0;
  }

let grow_int_array a n =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (Int.max (2 * len) n) 0 in
    Array.blit a 0 b 0 len;
    b
  end

(* --- top-level hot-path helpers (no per-attempt closures) ---------------- *)

(* [t] is relative to [slot_base]; every issue and commit cycle of an
   attempt is at or after its [start_fetch], so [t >= 0] *)
let[@inline] slot_count a gen t =
  if t >= Array.length a then 0
  else begin
    let v = Array.unsafe_get a t in
    if v lsr 8 = gen then v land 0xFF else 0
  end

let take_issue ctx t =
  if t >= Array.length ctx.issue_slots then
    ctx.issue_slots <- grow_int_array ctx.issue_slots (t + 1);
  let a = ctx.issue_slots in
  let v = Array.unsafe_get a t in
  let gen = ctx.gen in
  Array.unsafe_set a t (if v lsr 8 = gen then v + 1 else (gen lsl 8) lor 1)

let take_commit ctx t =
  if t >= Array.length ctx.commit_slots then
    ctx.commit_slots <- grow_int_array ctx.commit_slots (t + 1);
  let a = ctx.commit_slots in
  let v = Array.unsafe_get a t in
  let gen = ctx.gen in
  Array.unsafe_set a t (if v lsr 8 = gen then v + 1 else (gen lsl 8) lor 1)

(* choose issue cycle >= cand with a free unit and issue bandwidth *)
let find_issue ctx cand (units : int array) ~init =
  let issue_width = ctx.cfg.Config.issue_width in
  let gen = ctx.gen in
  let t = ref cand in
  let chosen = ref (-1) in
  let continue_ = ref true in
  while !continue_ do
    (* earliest-free unit *)
    let best = ref 0 in
    for u = 1 to Array.length units - 1 do
      if units.(u) < units.(!best) then best := u
    done;
    if units.(!best) > !t then t := units.(!best)
    else if slot_count ctx.issue_slots gen (!t - ctx.slot_base) >= issue_width
    then incr t
    else begin
      chosen := !best;
      continue_ := false
    end
  done;
  take_issue ctx (!t - ctx.slot_base);
  units.(!chosen) <- !t + init;
  !t

let[@inline] next_fetch ctx =
  if ctx.fetch_in_cycle >= ctx.cfg.Config.issue_width then begin
    ctx.fetch_time <- ctx.fetch_time + 1;
    ctx.fetch_in_cycle <- 0
  end;
  ctx.fetch_in_cycle <- ctx.fetch_in_cycle + 1;
  ctx.fetch_time

let[@inline] redirect ctx t =
  if t + 1 > ctx.fetch_time then begin
    ctx.fetch_time <- t + 1;
    ctx.fetch_in_cycle <- 0
  end

let[@inline] outside_avail ctx r =
  let c = ctx.avail_cache.(r) in
  if c >= 0 then c
  else begin
    let v = Int.max 0 (ctx.h.h_reg_avail r) in
    ctx.avail_cache.(r) <- v;
    v
  end

let push_load ctx addr time site =
  if ctx.n_loads >= Array.length ctx.l_addr then begin
    let n = ctx.n_loads + 1 in
    ctx.l_addr <- grow_int_array ctx.l_addr n;
    ctx.l_time <- grow_int_array ctx.l_time n;
    ctx.l_site <- grow_int_array ctx.l_site n
  end;
  ctx.l_addr.(ctx.n_loads) <- addr;
  ctx.l_time.(ctx.n_loads) <- time;
  ctx.l_site.(ctx.n_loads) <- site;
  ctx.n_loads <- ctx.n_loads + 1

let push_store ctx addr time site =
  if ctx.n_stores >= Array.length ctx.s_addr then begin
    let n = ctx.n_stores + 1 in
    ctx.s_addr <- grow_int_array ctx.s_addr n;
    ctx.s_time <- grow_int_array ctx.s_time n;
    ctx.s_site <- grow_int_array ctx.s_site n
  end;
  ctx.s_addr.(ctx.n_stores) <- addr;
  ctx.s_time.(ctx.n_stores) <- time;
  ctx.s_site.(ctx.n_stores) <- site;
  ctx.n_stores <- ctx.n_stores + 1

(* schedule one (pseudo-)instruction; returns completion time.
   [u1;u2;u3] are the use registers in ascending order (-1 = none) —
   the order List.sort_uniq gave the old implementation; it decides
   whether a tied ready time reads as an inter- or intra-task source.
   [def] is the written register (-1 = none).  [init]: initiation
   interval — 1 for pipelined units, the full latency for unpipelined
   dividers. *)
let sched ctx ~site ~units ~latency ~init ~u1 ~u2 ~u3 ~def ~mem_addr ~mem_kind
    =
  let cfg = ctx.cfg in
  let h = ctx.h in
  let local_time = ctx.local_time in
  ctx.dyn_insns <- ctx.dyn_insns + 1;
  let i = ctx.insn_counter in
  ctx.insn_counter <- i + 1;
  let fetch_t = next_fetch ctx in
  let disp_t = ref (fetch_t + cfg.Config.front_depth) in
  let rob_size = cfg.Config.rob_size in
  let iq_size = cfg.Config.iq_size in
  if i >= rob_size then disp_t := Int.max !disp_t ctx.rob.(i mod rob_size);
  if i >= iq_size then disp_t := Int.max !disp_t ctx.iq.(i mod iq_size);
  (* operand readiness — inlined (a [use] helper closure would force
     [ready]/[inter_source] onto the heap and allocate per instruction) *)
  let ready = ref 0 in
  let inter_source = ref false in
  if u1 >= 0 && u1 <> Ir.Reg.zero then begin
    let lt = local_time.(u1) in
    if lt >= 0 then begin
      if lt > !ready then begin ready := lt; inter_source := false end
    end
    else begin
      let t = outside_avail ctx u1 in
      if t > !ready then begin ready := t; inter_source := true end
    end
  end;
  if u2 >= 0 && u2 <> Ir.Reg.zero then begin
    let lt = local_time.(u2) in
    if lt >= 0 then begin
      if lt > !ready then begin ready := lt; inter_source := false end
    end
    else begin
      let t = outside_avail ctx u2 in
      if t > !ready then begin ready := t; inter_source := true end
    end
  end;
  if u3 >= 0 && u3 <> Ir.Reg.zero then begin
    let lt = local_time.(u3) in
    if lt >= 0 then begin
      if lt > !ready then begin ready := lt; inter_source := false end
    end
    else begin
      let t = outside_avail ctx u3 in
      if t > !ready then begin ready := t; inter_source := true end
    end
  end;
  (* memory dependence / sync / hold; mem_kind: 0 none, 1 load, 2 store *)
  let is_load = ref false in
  let load_addr = ref 0 in
  let load_is_local = ref false in
  if mem_kind <> 0 then begin
    if not (Occ.Intmap.mem ctx.addr_seen mem_addr) then
      Occ.Intmap.set ctx.addr_seen mem_addr 1;
    if ctx.mem_hold > !ready then begin
      ready := ctx.mem_hold;
      inter_source := true
    end;
    if mem_kind = 1 then begin
      is_load := true;
      load_addr := mem_addr;
      let t_st = Occ.Intmap.find ctx.local_store mem_addr in
      if t_st >= 0 then begin
        (* forwarded inside the PU; older tasks are irrelevant *)
        load_is_local := true;
        if t_st > !ready then ready := t_st
      end
      else begin
        let lsite =
          Layout.site_id ctx.layout ~fid:(site_fid site) ~blk:(site_blk site)
            ~idx:(site_idx site)
        in
        let dep = h.h_mem_dep ~addr:mem_addr ~load_site:lsite in
        if dep >= 0 && dep land 1 = 1 then begin
          (* synchronised: wait for the producing store *)
          ctx.sync_waits <- ctx.sync_waits + 1;
          let avail = dep lsr 1 in
          if avail > !ready then begin
            ready := avail;
            inter_source := true
          end
        end
      end
    end
  end;
  let base =
    if cfg.Config.in_order then Int.max !disp_t ctx.last_issue else !disp_t
  in
  if !ready > base then begin
    let w = !ready - base in
    if !inter_source then ctx.inter_wait <- ctx.inter_wait + w
    else ctx.intra_wait <- ctx.intra_wait + w
  end;
  let cand = Int.max base !ready in
  let issue_t = find_issue ctx cand units ~init in
  if issue_t > ctx.last_issue then ctx.last_issue <- issue_t;
  (* memory operations additionally contend for their interleaved bank *)
  let access_t =
    if mem_kind <> 0 then h.h_mem_slot ~addr:mem_addr ~at:issue_t
    else issue_t
  in
  let lat =
    if !is_load then Int.max (h.h_load_lat ~addr:!load_addr) cfg.Config.arb_hit
    else latency
  in
  let complete_t = access_t + lat in
  if mem_kind = 1 then begin
    (* locally-forwarded loads cannot violate against older tasks *)
    if not !load_is_local then push_load ctx mem_addr access_t site
  end
  else if mem_kind = 2 then begin
    let t_st = access_t + 1 in
    Occ.Intmap.set ctx.local_store mem_addr t_st;
    push_store ctx mem_addr t_st site
  end;
  (* in-order commit with issue-width bandwidth *)
  let issue_width = cfg.Config.issue_width in
  let gen = ctx.gen in
  let slot_base = ctx.slot_base in
  let c = ref (Int.max complete_t ctx.last_commit) in
  while slot_count ctx.commit_slots gen (!c - slot_base) >= issue_width do
    incr c
  done;
  take_commit ctx (!c - slot_base);
  ctx.last_commit <- !c;
  ctx.rob.(i mod rob_size) <- !c;
  ctx.iq.(i mod iq_size) <- issue_t;
  if def >= 0 && def <> Ir.Reg.zero then begin
    local_time.(def) <- complete_t;
    ctx.local_site.(def) <- site
  end;
  complete_t

let exec (ctx : ctx) (inst : Dyntask.instance) ~start_fetch ~mem_hold
    (h : hooks) =
  let cfg = ctx.cfg in
  let trace = ctx.trace in
  let layout = ctx.layout in
  (* new attempt: invalidate every slot window by generation *)
  ctx.gen <- ctx.gen + 1;
  ctx.slot_base <- start_fetch;
  Array.fill ctx.units_int 0 (Array.length ctx.units_int) 0;
  Array.fill ctx.units_fp 0 (Array.length ctx.units_fp) 0;
  Array.fill ctx.units_mem 0 (Array.length ctx.units_mem) 0;
  Array.fill ctx.units_branch 0 (Array.length ctx.units_branch) 0;
  Array.fill ctx.rob 0 (Array.length ctx.rob) 0;
  Array.fill ctx.iq 0 (Array.length ctx.iq) 0;
  Array.fill ctx.local_time 0 Ir.Reg.count (-1);
  Array.fill ctx.avail_cache 0 Ir.Reg.count (-1);
  Occ.Intmap.clear ctx.local_store;
  Occ.Intmap.clear ctx.addr_seen;
  ctx.n_loads <- 0;
  ctx.n_stores <- 0;
  ctx.h <- h;
  ctx.mem_hold <- mem_hold;
  ctx.fetch_time <- start_fetch;
  ctx.fetch_in_cycle <- 0;
  ctx.insn_counter <- 0;
  ctx.last_commit <- 0;
  ctx.last_issue <- 0;
  ctx.resolve <- start_fetch;
  ctx.dyn_insns <- 0;
  ctx.intra_branches <- 0;
  ctx.intra_mispredicts <- 0;
  ctx.inter_wait <- 0;
  ctx.intra_wait <- 0;
  ctx.sync_waits <- 0;
  (* walk the events of the instance *)
  let n_events = Interp.Trace.num_events trace in
  let num_inst_events = inst.Dyntask.last - inst.Dyntask.first + 1 in
  ctx.event_entry <- grow_int_array ctx.event_entry num_inst_events;
  ctx.n_events_inst <- num_inst_events;
  let lat_int = cfg.Config.lat_int in
  let lat_int_mul = cfg.Config.lat_int_mul in
  let lat_int_div = cfg.Config.lat_int_div in
  let lat_fp = cfg.Config.lat_fp in
  let lat_fp_div = cfg.Config.lat_fp_div in
  for j = inst.Dyntask.first to inst.Dyntask.last do
    let fid = Interp.Trace.get_fid trace j in
    let blkl = Interp.Trace.get_blk trace j in
    let blk = Interp.Trace.block_at trace j in
    (* I-cache: pay any miss latency before fetching the block *)
    let extra = h.h_ifetch_extra ~fid ~blk:blkl in
    if extra > 0 then begin
      ctx.fetch_time <- ctx.fetch_time + extra;
      ctx.fetch_in_cycle <- 0
    end;
    ctx.event_entry.(j - inst.Dyntask.first) <- ctx.fetch_time;
    let addr_base = Interp.Trace.addr_offset trace j in
    let next_addr = ref 0 in
    let insns = blk.Ir.Block.insns in
    for idx = 0 to Array.length insns - 1 do
      let insn = Array.unsafe_get insns idx in
      let site = pack_site ~fid ~blk:blkl ~idx in
      (* Dispatch without the per-instruction lists of Ir.Insn.uses/defs.
         Use registers are passed pre-sorted ascending (min/max inline, no
         tuples) — the order List.sort_uniq gave the pre-event core, which
         decides the inter/intra attribution of tied ready times.
         Duplicate registers are harmless: a repeat can never be strictly
         later than its first occurrence. *)
      (match insn with
      | Ir.Insn.Nop ->
        ignore
          (sched ctx ~site ~units:ctx.units_int ~latency:lat_int ~init:1
             ~u1:(-1) ~u2:(-1) ~u3:(-1) ~def:(-1) ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Li (d, _) | Ir.Insn.Lf (d, _) ->
        ignore
          (sched ctx ~site ~units:ctx.units_int ~latency:lat_int ~init:1
             ~u1:(-1) ~u2:(-1) ~u3:(-1) ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Mov (d, s) ->
        ignore
          (sched ctx ~site ~units:ctx.units_int ~latency:lat_int ~init:1 ~u1:s
             ~u2:(-1) ~u3:(-1) ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Bin (op, d, s, Ir.Insn.Reg s2) ->
        let latency, init =
          match op with
          | Ir.Insn.Mul -> (lat_int_mul, 1)
          | Ir.Insn.Div | Ir.Insn.Rem -> (lat_int_div, lat_int_div)
          | _ -> (lat_int, 1)
        in
        let u1 = if s <= s2 then s else s2 in
        let u2 = if s <= s2 then s2 else s in
        ignore
          (sched ctx ~site ~units:ctx.units_int ~latency ~init ~u1 ~u2
             ~u3:(-1) ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Bin (op, d, s, Ir.Insn.Imm _) ->
        let latency, init =
          match op with
          | Ir.Insn.Mul -> (lat_int_mul, 1)
          | Ir.Insn.Div | Ir.Insn.Rem -> (lat_int_div, lat_int_div)
          | _ -> (lat_int, 1)
        in
        ignore
          (sched ctx ~site ~units:ctx.units_int ~latency ~init ~u1:s ~u2:(-1)
             ~u3:(-1) ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Fbin (op, d, s1, s2) ->
        let latency, init =
          match op with
          | Ir.Insn.Fdiv -> (lat_fp_div, lat_fp_div)
          | _ -> (lat_fp, 1)
        in
        let u1 = if s1 <= s2 then s1 else s2 in
        let u2 = if s1 <= s2 then s2 else s1 in
        ignore
          (sched ctx ~site ~units:ctx.units_fp ~latency ~init ~u1 ~u2 ~u3:(-1)
             ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Fcmp (_, d, s1, s2) ->
        let u1 = if s1 <= s2 then s1 else s2 in
        let u2 = if s1 <= s2 then s2 else s1 in
        ignore
          (sched ctx ~site ~units:ctx.units_fp ~latency:lat_fp ~init:1 ~u1 ~u2
             ~u3:(-1) ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Fun (op, d, s) ->
        let latency, init =
          match op with
          | Ir.Insn.Fsqrt -> (lat_fp_div, lat_fp_div)
          | _ -> (lat_fp, 1)
        in
        ignore
          (sched ctx ~site ~units:ctx.units_fp ~latency ~init ~u1:s ~u2:(-1)
             ~u3:(-1) ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Load (d, base, _) ->
        let a = Interp.Trace.addr_at trace (addr_base + !next_addr) in
        incr next_addr;
        ignore
          (sched ctx ~site ~units:ctx.units_mem ~latency:1 ~init:1 ~u1:base
             ~u2:(-1) ~u3:(-1) ~def:d ~mem_addr:a ~mem_kind:1)
      | Ir.Insn.Store (src, base, _) ->
        let a = Interp.Trace.addr_at trace (addr_base + !next_addr) in
        incr next_addr;
        let u1 = if src <= base then src else base in
        let u2 = if src <= base then base else src in
        ignore
          (sched ctx ~site ~units:ctx.units_mem ~latency:1 ~init:1 ~u1 ~u2
             ~u3:(-1) ~def:(-1) ~mem_addr:a ~mem_kind:2)
      | Ir.Insn.Cmov (d, c, s) ->
        (* Cmov reads d as well; three uses, ascending (3-element sorting
           network on ints) *)
        let a = if d <= c then d else c in
        let b = if d <= c then c else d in
        let b' = if b <= s then b else s in
        let u3 = if b <= s then s else b in
        let u1 = if a <= b' then a else b' in
        let u2 = if a <= b' then b' else a in
        ignore
          (sched ctx ~site ~units:ctx.units_int ~latency:lat_int ~init:1 ~u1
             ~u2 ~u3 ~def:d ~mem_addr:0 ~mem_kind:0))
    done;
    (* terminator: only conditional transfers read a register (the argument
       registers of calls are consumed by the callee's own instructions) *)
    let tidx = Array.length insns in
    let site = pack_site ~fid ~blk:blkl ~idx:tidx in
    let cond =
      match blk.Ir.Block.term with
      | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) -> c
      | Ir.Block.Jump _ | Ir.Block.Call _ | Ir.Block.Ret | Ir.Block.Halt -> -1
    in
    let t_complete =
      sched ctx ~site ~units:ctx.units_branch ~latency:1 ~init:1 ~u1:cond
        ~u2:(-1) ~u3:(-1) ~def:(-1) ~mem_addr:0 ~mem_kind:0
    in
    if t_complete > ctx.resolve then ctx.resolve <- t_complete;
    (* intra-task control prediction for conditional transfers *)
    let pc = Layout.block_id layout ~fid ~blk:blkl in
    let next_in_fid =
      j + 1 < n_events && Interp.Trace.get_fid trace (j + 1) = fid
    in
    (match blk.Ir.Block.term with
    | Ir.Block.Br (_, l1, _) when next_in_fid ->
      ctx.intra_branches <- ctx.intra_branches + 1;
      let taken = Interp.Trace.get_blk trace (j + 1) = l1 in
      if not (h.h_cond_pred ~pc ~taken) then begin
        ctx.intra_mispredicts <- ctx.intra_mispredicts + 1;
        if j < inst.Dyntask.last then
          redirect ctx (t_complete + cfg.Config.branch_redirect - 1)
      end
    | Ir.Block.Switch (_, targets, _) when next_in_fid ->
      ctx.intra_branches <- ctx.intra_branches + 1;
      let next_blk = Interp.Trace.get_blk trace (j + 1) in
      (* first arm naming the next block (a loop, not an allocating
         Array.iteri closure) *)
      let n_targets = Array.length targets in
      let actual = ref 0 in
      while !actual < n_targets && targets.(!actual) <> next_blk do
        incr actual
      done;
      if not (h.h_switch_pred ~pc ~actual:!actual) then begin
        ctx.intra_mispredicts <- ctx.intra_mispredicts + 1;
        if j < inst.Dyntask.last then
          redirect ctx (t_complete + cfg.Config.branch_redirect - 1)
      end
    | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Jump _ | Ir.Block.Call _
    | Ir.Block.Ret | Ir.Block.Halt -> ())
  done;
  ctx.complete <- ctx.last_commit;
  ctx.distinct_addrs <- Occ.Intmap.cardinal ctx.addr_seen

(* Split an instance's execution window between useful work and inter-task
   data waits.  [inter_wait] is a per-instruction sum of issue cycles lost to
   operands produced by older tasks (ring arrivals, ARB forwards, overflow
   holds); with multiple instructions blocked on the same arrival it can
   exceed the wall-clock window, so it is clamped — attribution charges each
   wall-clock cycle at most once. *)
let attribute (ctx : ctx) ~start_fetch acct =
  let window = Int.max 0 (ctx.complete - start_fetch) in
  let data_wait = Int.min ctx.inter_wait window in
  Account.add acct Account.Data_wait data_wait;
  Account.add acct Account.Useful (window - data_wait)
