(** Per-task-instance pipeline timing.

    Replays one dynamic task instance on one PU, modelling the paper's
    processing-unit configuration: [issue_width]-wide fetch/issue, a
    [rob_size]-entry reorder buffer, an [iq_size]-entry issue list,
    functional-unit structural hazards, in-order or out-of-order issue,
    gshare-predicted intra-task branches (misprediction redirects fetch),
    and loads/stores through the ARB + cache hierarchy.

    Inter-task inputs (operand arrival through the register ring, memory
    values forwarded from older tasks' stores) are provided by the engine
    through {!hooks}; the computation is deterministic given those.

    The engine allocates one {!ctx} per simulation and calls {!exec} for
    every attempt of every dynamic task instance; all scratch state is
    reused and invalidated by generation stamps, so an attempt allocates
    only when a scratch array must first grow past the largest attempt so
    far.  The issue/commit windows are indexed relative to the attempt's
    [start_fetch], so they span the longest attempt, not the run.  Results
    are read directly from the context's flat arrays (DESIGN.md §10). *)

(** Inter-task inputs as a record of closures created once per run (the
    closures read the engine's mutable per-task state, so nothing is
    allocated per attempt). *)
type hooks = {
  h_reg_avail : Ir.Reg.t -> int;
      (** arrival time of an operand not produced inside the instance *)
  h_mem_dep : addr:int -> load_site:int -> int;
      (** is the youngest older in-flight task writing [addr]?  [-1] if
          not, else [(avail lsl 1) lor synced]: the forwarded value's
          availability time and whether the sync table holds this
          (load, store) pair — if so the load waits (Moshovos
          synchronization) instead of speculating *)
  h_load_lat : addr:int -> int;  (** D-cache hierarchy latency *)
  h_mem_slot : addr:int -> at:int -> int;
      (** reserve a D-cache/ARB bank port shared across the PUs: returns the
          earliest cycle at or after [at] when the address's bank is free *)
  h_ifetch_extra : fid:int -> blk:Ir.Block.label -> int;
      (** extra fetch cycles on an I-cache miss for the block *)
  h_cond_pred : pc:int -> taken:bool -> bool;  (** gshare; returns correct? *)
  h_switch_pred : pc:int -> actual:int -> bool;
}

type ctx = {
  cfg : Config.t;
  trace : Interp.Trace.t;
  layout : Layout.t;
  units_int : int array;
  units_fp : int array;
  units_mem : int array;
  units_branch : int array;
  rob : int array;
  iq : int array;
  mutable issue_slots : int array;
  mutable commit_slots : int array;
  mutable gen : int;
  mutable slot_base : int;
      (** [start_fetch] of the current attempt: cycle [t] of the issue and
          commit windows is at index [t - slot_base] *)
  local_time : int array;
      (** per register: completion time of the instance's last write, or -1 *)
  local_site : int array;  (** packed site of that write (see {!pack_site}) *)
  avail_cache : int array;
  local_store : Occ.Intmap.t;
  addr_seen : Occ.Intmap.t;
  mutable l_addr : int array;
      (** externally visible loads, in program order: address, execution
          time and packed site, valid for [[0, n_loads)] *)
  mutable l_time : int array;
  mutable l_site : int array;
  mutable n_loads : int;
  mutable s_addr : int array;  (** stores, laid out like the loads *)
  mutable s_time : int array;
  mutable s_site : int array;
  mutable n_stores : int;
  mutable event_entry : int array;
      (** fetch time at the start of each event of the instance, valid for
          [[0, n_events_inst)] — the engine uses these as the execution
          times of compiler-inserted register-release points *)
  mutable n_events_inst : int;
  mutable h : hooks;  (** hooks and scheduler state of the current attempt *)
  mutable mem_hold : int;
  mutable fetch_time : int;
  mutable fetch_in_cycle : int;
  mutable insn_counter : int;
  mutable last_commit : int;
  mutable last_issue : int;
  mutable complete : int;  (** commit time of the last instruction *)
  mutable resolve : int;  (** completion of the last control-transfer insn *)
  mutable dyn_insns : int;
  mutable intra_branches : int;
  mutable intra_mispredicts : int;
  mutable distinct_addrs : int;  (** speculative ARB footprint of the task *)
  mutable inter_wait : int;  (** issue cycles lost waiting on inter-task operands *)
  mutable intra_wait : int;  (** issue cycles lost waiting on intra-task operands *)
  mutable sync_waits : int;  (** loads held back by the synchronization table *)
}

val pack_site : fid:int -> blk:int -> idx:int -> int
(** [fid lsl 36 | blk lsl 16 | idx] — sites as single ints on the hot path. *)

val site_fid : int -> int
val site_blk : int -> int
val site_idx : int -> int

val create : Config.t -> Interp.Trace.t -> Layout.t -> ctx
(** Raises [Invalid_argument] unless [issue_width] is in [1..255]: the
    windows keep per-cycle counts in 8 bits. *)

val exec :
  ctx -> Dyntask.instance -> start_fetch:int -> mem_hold:int -> hooks -> unit
(** Replay one instance fetched from cycle [start_fetch], overwriting the
    context's result fields.  Memory operations may not issue before
    [mem_hold] (ARB-overflow serialisation; 0 normally).  The qcheck
    differential in test/test_event_core.ml pins this cycle for cycle
    against the frozen pre-event core. *)

val attribute : ctx -> start_fetch:int -> Account.t -> unit
(** Charge the execution window of the instance last run by {!exec}
    ([start_fetch] .. [complete]) to {!Account.Data_wait} (inter-task
    operand waits, clamped to the window) and {!Account.Useful} (everything
    else, including intra-task dependence and structural stalls —
    uniprocessor costs, per the paper's §2 framing of task-selection
    issues). *)
