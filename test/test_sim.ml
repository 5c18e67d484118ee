(* Tests for the Multiscalar simulator: predictors, caches, layout, dynamic
   task chopping, per-task timing, and the engine (including memory
   dependence speculation). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cfg4 = Sim.Config.default ~num_pus:4 ~in_order:false
let cfg8 = Sim.Config.default ~num_pus:8 ~in_order:false

(* --- predictors ---------------------------------------------------------- *)

let test_gshare_learns_bias () =
  let g = Sim.Predict.Gshare.create cfg4 in
  let wrong = ref 0 in
  for i = 1 to 2000 do
    if not (Sim.Predict.Gshare.predict_and_update g ~pc:42 ~taken:true) then
      incr wrong;
    ignore i
  done;
  checkb "always-taken learned" true (!wrong < 20)

let test_gshare_learns_pattern () =
  (* alternating taken/not-taken is captured by the history *)
  let g = Sim.Predict.Gshare.create cfg4 in
  let wrong = ref 0 in
  for i = 1 to 4000 do
    let taken = i mod 2 = 0 in
    if not (Sim.Predict.Gshare.predict_and_update g ~pc:7 ~taken) then
      incr wrong
  done;
  checkb "alternation learned" true (!wrong < 100)

let test_gshare_distinguishes_pcs () =
  let g = Sim.Predict.Gshare.create cfg4 in
  let wrong = ref 0 in
  for i = 1 to 4000 do
    ignore (Sim.Predict.Gshare.predict_and_update g ~pc:1 ~taken:true);
    if not (Sim.Predict.Gshare.predict_and_update g ~pc:2 ~taken:false) then
      incr wrong;
    ignore i
  done;
  checkb "opposite-bias branches coexist" true (!wrong < 100)

let test_target_predictor () =
  let t = Sim.Predict.Target.create cfg4 in
  let wrong = ref 0 in
  for i = 1 to 3000 do
    if not (Sim.Predict.Target.predict_and_update t ~pc:5 ~actual:2) then
      incr wrong;
    ignore i
  done;
  checkb "constant target learned" true (!wrong < 20)

let test_target_above_four_never_correct () =
  let t = Sim.Predict.Target.create cfg4 in
  let any = ref false in
  for _ = 1 to 100 do
    if Sim.Predict.Target.predict_and_update t ~pc:5 ~actual:7 then any := true
  done;
  checkb "2-bit target cannot express slot 7" false !any

let test_ras () =
  let r = Sim.Predict.Ras.create 4 in
  Sim.Predict.Ras.push r 10;
  Sim.Predict.Ras.push r 20;
  checki "depth" 2 (Sim.Predict.Ras.depth r);
  checkb "lifo" true (Sim.Predict.Ras.pop r = Some 20);
  checkb "lifo 2" true (Sim.Predict.Ras.pop r = Some 10);
  checkb "underflow" true (Sim.Predict.Ras.pop r = None)

let test_ras_overflow_drops_oldest () =
  let r = Sim.Predict.Ras.create 2 in
  Sim.Predict.Ras.push r 1;
  Sim.Predict.Ras.push r 2;
  Sim.Predict.Ras.push r 3;
  checki "capacity respected" 2 (Sim.Predict.Ras.depth r);
  checkb "newest on top" true (Sim.Predict.Ras.pop r = Some 3);
  checkb "oldest dropped" true (Sim.Predict.Ras.pop r = Some 2)

(* --- caches -------------------------------------------------------------- *)

let test_cache_hit_after_miss () =
  let c = Sim.Cache.create ~sets:16 ~ways:2 ~block_words:8 in
  checkb "first access misses" false (Sim.Cache.access c 100);
  checkb "second hits" true (Sim.Cache.access c 100);
  checkb "same block hits" true (Sim.Cache.access c 103);
  checkb "other block misses" false (Sim.Cache.access c 1000)

let test_cache_lru_eviction () =
  let c = Sim.Cache.create ~sets:1 ~ways:2 ~block_words:1 in
  ignore (Sim.Cache.access c 0);
  ignore (Sim.Cache.access c 1);
  (* touching 0 makes 1 the LRU victim *)
  checkb "0 still resident" true (Sim.Cache.access c 0);
  ignore (Sim.Cache.access c 2);
  (* 2 replaced the LRU line (1); 0 must have survived *)
  checkb "0 survived" true (Sim.Cache.access c 0);
  checkb "1 evicted" false (Sim.Cache.access c 1)

let test_hierarchy_latencies () =
  let h = Sim.Cache.Hierarchy.create cfg4 in
  let miss_lat = Sim.Cache.Hierarchy.dload h 500 in
  checki "cold miss = l1 + l2 + mem"
    (cfg4.Sim.Config.l1_latency + cfg4.Sim.Config.l2_latency
   + cfg4.Sim.Config.mem_latency)
    miss_lat;
  checki "hit = l1" cfg4.Sim.Config.l1_latency (Sim.Cache.Hierarchy.dload h 500);
  (* evict from L1 but not from the much larger L2: L1+L2 latency *)
  let c = Sim.Cache.Hierarchy.l1d h in
  ignore c;
  checki "ifetch hit costs nothing extra" 0
    (let _ = Sim.Cache.Hierarchy.ifetch h 800 in
     Sim.Cache.Hierarchy.ifetch h 800)

(* --- layout -------------------------------------------------------------- *)

let test_layout_unique () =
  let prog = Gen.fib_program 3 in
  let o = Interp.Run.execute prog in
  let tr = o.Interp.Run.trace in
  let layout = Sim.Layout.create tr.Interp.Trace.funcs in
  let ids = Hashtbl.create 16 in
  Array.iteri
    (fun fid f ->
      for blk = 0 to Ir.Func.num_blocks f - 1 do
        let id = Sim.Layout.block_id layout ~fid ~blk in
        checkb "unique id" true (not (Hashtbl.mem ids id));
        Hashtbl.replace ids id ()
      done)
    tr.Interp.Trace.funcs;
  checki "count" (Sim.Layout.num_blocks layout) (Hashtbl.length ids)

(* --- dynamic task chopping ----------------------------------------------- *)

let chop_of level prog =
  let plan = Core.Partition.build level prog in
  let o = Interp.Run.execute plan.Core.Partition.prog in
  let tr = o.Interp.Run.trace in
  let parts =
    Array.map
      (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
      tr.Interp.Trace.fnames
  in
  (tr, Sim.Dyntask.chop tr ~parts)

let test_chop_tiles () =
  List.iter
    (fun level ->
      let tr, instances = chop_of level (Gen.fib_program 8) in
      match Sim.Dyntask.check_instances tr instances with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s: %s" (Core.Heuristics.level_name level) e)
    Core.Heuristics.all_levels

let test_chop_kinds () =
  let tr, instances = chop_of Core.Heuristics.Control_flow (Gen.fib_program 6) in
  ignore tr;
  let n = Array.length instances in
  checkb "last is program end" true
    (instances.(n - 1).Sim.Dyntask.kind = Sim.Dyntask.Program_end);
  let calls =
    Array.fold_left
      (fun acc i ->
        match i.Sim.Dyntask.kind with Sim.Dyntask.Calls _ -> acc + 1 | _ -> acc)
      0 instances
  in
  let rets =
    Array.fold_left
      (fun acc i ->
        match i.Sim.Dyntask.kind with Sim.Dyntask.Returns -> acc + 1 | _ -> acc)
      0 instances
  in
  checkb "calls happen" true (calls > 0);
  (* every call returns except possibly the last instance *)
  checkb "calls and returns balance" true (abs (calls - rets) <= 1)

let test_chop_included_calls () =
  (* at task-size level, fib's tiny callee is included: the number of
     instances shrinks versus data-dependence *)
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "tiny" (fun b ->
      Ir.Builder.addi b Ir.Reg.rv (Ir.Reg.arg 0) 1;
      Ir.Builder.ret b);
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 50)
        ~step:1 (fun b ->
          Ir.Builder.mov b (Ir.Reg.arg 0) t0;
          Ir.Builder.call b "tiny");
      Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let _, dd = chop_of Core.Heuristics.Data_dependence prog in
  let _, ts = chop_of Core.Heuristics.Task_size prog in
  checkb "inclusion merges instances" true
    (Array.length ts < Array.length dd)

let test_chop_nested_included_calls () =
  (* tiny2 calls tiny1; both below CALL_THRESH: at the task-size level the
     whole call tree executes inside the loop task (depth-2 inclusion) *)
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "tiny1" (fun b ->
      Ir.Builder.addi b Ir.Reg.rv (Ir.Reg.arg 0) 1;
      Ir.Builder.ret b);
  Ir.Builder.func pb "tiny2" (fun b ->
      Ir.Builder.call b "tiny1";
      Ir.Builder.addi b Ir.Reg.rv Ir.Reg.rv 1;
      Ir.Builder.ret b);
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 30)
        ~step:1 (fun b ->
          Ir.Builder.mov b (Ir.Reg.arg 0) t0;
          Ir.Builder.call b "tiny2");
      Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let tr, ts = chop_of Core.Heuristics.Task_size prog in
  (match Sim.Dyntask.check_instances tr ts with
  | Ok () -> ()
  | Error e -> Alcotest.failf "nested inclusion: %s" e);
  let _, dd = chop_of Core.Heuristics.Data_dependence prog in
  checkb "nested inclusion merges instances" true
    (Array.length ts < Array.length dd);
  (* with both calls included, no instance ends in Calls/Returns except via
     main's own epilogue *)
  let calls =
    Array.fold_left
      (fun acc i ->
        match i.Sim.Dyntask.kind with Sim.Dyntask.Calls _ -> acc + 1 | _ -> acc)
      0 ts
  in
  checkb "call boundaries disappear" true (calls <= 1)

let test_chop_recursion () =
  (* recursive functions stay task boundaries (their inclusive size is big);
     the chop must still tile the trace *)
  let tr, instances = chop_of Core.Heuristics.Task_size (Gen.fib_program 10) in
  match Sim.Dyntask.check_instances tr instances with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recursion: %s" e

(* --- timing -------------------------------------------------------------- *)

(* helper: simulate a straight-line program and report cycles *)
let run_level ?(cfg = cfg4) level prog =
  let plan = Core.Partition.build level prog in
  (Sim.Engine.run cfg plan).Sim.Engine.stats

let straightline_prog ~dependent n =
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t0 1;
      for i = 0 to n - 1 do
        if dependent then Ir.Builder.addi b t0 t0 1
        else Ir.Builder.li b (Ir.Reg.tmp (1 + (i mod 8))) i
      done;
      Ir.Builder.mov b Ir.Reg.rv t0);
  Ir.Builder.finish pb ~main:"main"

let test_dependent_chain_slower () =
  let dep = run_level Core.Heuristics.Control_flow (straightline_prog ~dependent:true 60) in
  let ind = run_level Core.Heuristics.Control_flow (straightline_prog ~dependent:false 60) in
  checkb "dependent chain is slower" true
    (dep.Sim.Stats.cycles > ind.Sim.Stats.cycles)

let test_in_order_not_faster () =
  List.iter
    (fun name ->
      let e = Workloads.Suite.find name in
      let prog = e.Workloads.Registry.build () in
      let plan = Core.Partition.build Core.Heuristics.Control_flow prog in
      let ooo = Sim.Engine.run cfg8 plan in
      let io =
        Sim.Engine.run (Sim.Config.default ~num_pus:8 ~in_order:true) plan
      in
      checkb
        (name ^ ": out-of-order at least as fast")
        true
        (Sim.Stats.ipc ooo.Sim.Engine.stats
         >= Sim.Stats.ipc io.Sim.Engine.stats -. 0.01))
    [ "compress"; "tomcatv" ]

let test_ipc_bounded () =
  let s = run_level Core.Heuristics.Task_size (Gen.square_sum_program 200) in
  checkb "IPC within machine width" true
    (Sim.Stats.ipc s <= float_of_int (4 * cfg4.Sim.Config.issue_width))

(* --- memory dependence speculation --------------------------------------- *)

(* Older task stores to a fixed address *late* (behind a dependence chain);
   younger task loads it *early*.  With control-flow loop tasks on several
   PUs the younger load runs ahead, so the first iterations must violate,
   and the synchronization table must then suppress repeats. *)
let violation_prog () =
  let pb = Ir.Builder.program () in
  let cell = Ir.Builder.alloc pb 1 in
  let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 and t2 = Ir.Reg.tmp 2 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t2 0;
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 60)
        ~step:1 (fun b ->
          (* early load *)
          Ir.Builder.li b t1 cell;
          Ir.Builder.load b t1 t1 0;
          Ir.Builder.bin b Ir.Insn.Add t2 t2 (Ir.Insn.Reg t1);
          (* long dependent delay *)
          for _ = 1 to 12 do
            Ir.Builder.bin b Ir.Insn.Mul t2 t2 (Ir.Insn.Imm 1)
          done;
          (* late store *)
          Ir.Builder.addi b t1 t2 1;
          Ir.Builder.bin b Ir.Insn.And t1 t1 (Ir.Insn.Imm 255);
          Ir.Builder.li b Ir.Reg.rv cell;
          Ir.Builder.store b t1 Ir.Reg.rv 0);
      Ir.Builder.mov b Ir.Reg.rv t2);
  Ir.Builder.finish pb ~main:"main"

let test_violation_then_sync () =
  let s = run_level ~cfg:cfg8 Core.Heuristics.Control_flow (violation_prog ()) in
  checkb "violations occur" true (s.Sim.Stats.violations > 0);
  checkb "sync table kicks in" true (s.Sim.Stats.syncs > 0);
  checkb "violations bounded by sync learning" true
    (s.Sim.Stats.violations < 10);
  checkb "mem penalty charged" true (s.Sim.Stats.mem_penalty > 0)

let test_single_pu_never_violates () =
  let cfg1 = Sim.Config.default ~num_pus:1 ~in_order:false in
  let s = run_level ~cfg:cfg1 Core.Heuristics.Control_flow (violation_prog ()) in
  checki "no violations on 1 PU" 0 s.Sim.Stats.violations

let test_bank_contention () =
  (* a memory-heavy parallel loop: a single shared bank must be slower than
     per-PU interleaved banks *)
  let prog =
    let pb = Ir.Builder.program () in
    let a = Ir.Builder.alloc pb 512 in
    let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 in
    Ir.Builder.func pb "main" (fun b ->
        Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 400)
          ~step:1 (fun b ->
            Ir.Builder.bin b Ir.Insn.And t1 t0 (Ir.Insn.Imm 255);
            Ir.Builder.addi b t1 t1 a;
            Ir.Builder.load b Ir.Reg.rv t1 0;
            Ir.Builder.store b Ir.Reg.rv t1 256);
        Ir.Builder.ret b);
    Ir.Builder.finish pb ~main:"main"
  in
  let plan = Core.Partition.build Core.Heuristics.Control_flow prog in
  let one_bank = { cfg8 with Sim.Config.l1_banks = 1 } in
  let s1 = (Sim.Engine.run one_bank plan).Sim.Engine.stats in
  let s8 = (Sim.Engine.run cfg8 plan).Sim.Engine.stats in
  checkb "interleaving helps memory-heavy code" true
    (s8.Sim.Stats.cycles <= s1.Sim.Stats.cycles)

(* --- superscalar reference ------------------------------------------------ *)

let test_superscalar_runs () =
  let prog = Gen.square_sum_program 100 in
  let o = Interp.Run.execute prog in
  let cfg =
    {
      (Sim.Config.default ~num_pus:1 ~in_order:false) with
      Sim.Config.issue_width = 4;
      rob_size = 64;
      iq_size = 32;
    }
  in
  let r = Sim.Superscalar.run cfg o.Interp.Run.trace in
  checki "all insns counted" o.Interp.Run.steps
    r.Sim.Superscalar.stats.Sim.Stats.dyn_insns;
  checkb "ipc positive and bounded" true
    (let ipc = Sim.Stats.ipc r.Sim.Superscalar.stats in
     ipc > 0.0 && ipc <= 4.0);
  checkb "window within ROB" true
    (r.Sim.Superscalar.avg_window <= 64.0 +. 1e-9)

let test_superscalar_wider_not_slower () =
  let prog = Gen.square_sum_program 200 in
  let o = Interp.Run.execute prog in
  let mk width rob =
    {
      (Sim.Config.default ~num_pus:1 ~in_order:false) with
      Sim.Config.issue_width = width;
      rob_size = rob;
      iq_size = rob / 2;
      fu_int = width;
    }
  in
  let narrow = Sim.Superscalar.run (mk 2 16) o.Interp.Run.trace in
  let wide = Sim.Superscalar.run (mk 8 128) o.Interp.Run.trace in
  checkb "wider machine at least as fast" true
    (wide.Sim.Superscalar.stats.Sim.Stats.cycles
     <= narrow.Sim.Superscalar.stats.Sim.Stats.cycles)

(* --- predictor ablation ---------------------------------------------------- *)

let test_bimodal_config_runs () =
  let prog = Gen.square_sum_program 100 in
  let plan = Core.Partition.build Core.Heuristics.Control_flow prog in
  let cfg = { cfg8 with Sim.Config.task_path_history = false } in
  let r = Sim.Engine.run cfg plan in
  checkb "bimodal predictor still simulates" true
    (Sim.Stats.ipc r.Sim.Engine.stats > 0.0)

(* --- per-path release points ------------------------------------------------ *)

(* Regression for the register release model: a loop whose carried register
   is *conditionally* rewritten late (an interpreter-style virtual PC).  A
   path-insensitive "send at task end" model serialises the machine; with
   per-path release the rare-rewrite path forwards early and 8 PUs must
   clearly beat 1 PU. *)
let test_release_points_unserialise () =
  let prog =
    let pb = Ir.Builder.program () in
    let pc = Ir.Reg.tmp 0 and i = Ir.Reg.tmp 1 and t = Ir.Reg.tmp 2 in
    let acc = Ir.Reg.tmp 3 in
    Ir.Builder.func pb "main" (fun b ->
        Ir.Builder.li b pc 0;
        Ir.Builder.for_ b i ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 300)
          ~step:1 (fun b ->
            (* common path: pc advances by 1 early *)
            Ir.Builder.addi b pc pc 1;
            (* some dependent work *)
            for _ = 1 to 8 do
              Ir.Builder.bin b Ir.Insn.Add acc acc (Ir.Insn.Reg pc)
            done;
            (* rare path: a "branch" rewrites pc late *)
            Ir.Builder.bin b Ir.Insn.And t i (Ir.Insn.Imm 63);
            Ir.Builder.bin b Ir.Insn.Eq t t (Ir.Insn.Imm 63);
            Ir.Builder.when_ b t (fun b -> Ir.Builder.li b pc 0));
        Ir.Builder.mov b Ir.Reg.rv acc);
    Ir.Builder.finish pb ~main:"main"
  in
  let plan = Core.Partition.build Core.Heuristics.Control_flow prog in
  let ipc n =
    Sim.Stats.ipc
      (Sim.Engine.run (Sim.Config.default ~num_pus:n ~in_order:false) plan)
        .Sim.Engine.stats
  in
  checkb "8 PUs clearly beat 1 PU despite the conditional rewrite" true
    (ipc 8 > 1.6 *. ipc 1)

(* --- engine invariants --------------------------------------------------- *)

let test_all_insns_retired () =
  let prog = Gen.fib_program 12 in
  List.iter
    (fun level ->
      let plan = Core.Partition.build level prog in
      let o = Interp.Run.execute plan.Core.Partition.prog in
      let r = Sim.Engine.run_with_trace cfg8 plan o.Interp.Run.trace in
      checki
        (Core.Heuristics.level_name level)
        o.Interp.Run.steps r.Sim.Engine.stats.Sim.Stats.dyn_insns)
    Core.Heuristics.all_levels

let test_deterministic () =
  let prog = Gen.square_sum_program 50 in
  let plan = Core.Partition.build Core.Heuristics.Data_dependence prog in
  let a = Sim.Engine.run cfg8 plan in
  let b = Sim.Engine.run cfg8 plan in
  checki "same cycles" a.Sim.Engine.stats.Sim.Stats.cycles
    b.Sim.Engine.stats.Sim.Stats.cycles

let test_more_pus_not_slower () =
  let prog = Gen.square_sum_program 300 in
  let plan = Core.Partition.build Core.Heuristics.Data_dependence prog in
  let c1 = Sim.Config.default ~num_pus:1 ~in_order:false in
  let s1 = (Sim.Engine.run c1 plan).Sim.Engine.stats in
  let s8 = (Sim.Engine.run cfg8 plan).Sim.Engine.stats in
  checkb "8 PUs at least as fast as 1" true
    (s8.Sim.Stats.cycles <= s1.Sim.Stats.cycles)

(* Chopping over the packed representation must still tile the trace
   exactly: every event covered once, in order, sizes consistent — on
   arbitrary generated programs at every heuristic level. *)
let prop_chop_covers_packed =
  QCheck.Test.make ~name:"chop tiles the packed trace at every level"
    ~count:10 Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun level ->
          let tr, instances = chop_of level prog in
          Sim.Dyntask.check_instances tr instances = Ok ())
        Core.Heuristics.all_levels)

let prop_engine_retires_everything =
  QCheck.Test.make ~name:"engine retires exactly the dynamic instructions"
    ~count:10 Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun level ->
          let plan = Core.Partition.build level prog in
          let o = Interp.Run.execute plan.Core.Partition.prog in
          let r = Sim.Engine.run_with_trace cfg4 plan o.Interp.Run.trace in
          r.Sim.Engine.stats.Sim.Stats.dyn_insns = o.Interp.Run.steps
          && r.Sim.Engine.stats.Sim.Stats.cycles > 0)
        Core.Heuristics.all_levels)

(* --- paged tables against flat reference models ------------------------- *)

(* The simulator allocates its cache and predictor tables in pages on first
   touch.  These tiny flat models are the tables as they were before that:
   one array for the whole structure, initialised up front.  Streams are
   drawn from a fixed seed, printed in every failure message. *)
let diff_seed = 20261018

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

module Flat_cache = struct
  type t = { sets : int; ways : int; bw : int; tags : int array; lru : int array }

  let create ~sets ~ways ~block_words =
    {
      sets;
      ways;
      bw = block_words;
      tags = Array.make (sets * ways) (-1);
      lru = Array.init (sets * ways) (fun i -> i mod ways);
    }

  let touch t base way =
    let age = t.lru.(base + way) in
    for w = base to base + t.ways - 1 do
      if t.lru.(w) < age then t.lru.(w) <- t.lru.(w) + 1
    done;
    t.lru.(base + way) <- 0

  let access t addr =
    let block = addr / t.bw in
    let set = block mod t.sets and tag = block / t.sets in
    let base = set * t.ways in
    let found = ref (-1) in
    for w = 0 to t.ways - 1 do
      if t.tags.(base + w) = tag then found := w
    done;
    if !found >= 0 then (touch t base !found; true)
    else begin
      let victim = ref 0 in
      for w = 0 to t.ways - 1 do
        if t.lru.(base + w) > t.lru.(base + !victim) then victim := w
      done;
      t.tags.(base + !victim) <- tag;
      touch t base !victim;
      false
    end
end

let test_paged_cache_matches_flat () =
  let rng = Random.State.make [| diff_seed |] in
  List.iter
    (fun (sets, ways, block_words) ->
      let c = Sim.Cache.create ~sets ~ways ~block_words in
      let f = Flat_cache.create ~sets ~ways ~block_words in
      (* about twice the capacity, so both hits and evictions are common *)
      let span = 2 * sets * ways * block_words in
      let misses = ref 0 in
      for i = 1 to 20_000 do
        let addr = Random.State.int rng span in
        let hit = Flat_cache.access f addr in
        if not hit then incr misses;
        if Sim.Cache.access c addr <> hit then
          Alcotest.failf "seed %d: %d sets x %d ways: access %d (addr %d) differs"
            diff_seed sets ways i addr
      done;
      checki "accesses" 20_000 (Sim.Cache.accesses c);
      checki "misses" !misses (Sim.Cache.misses c))
    [ (1, 1, 1); (1, 3, 2); (7, 3, 8); (300, 1, 8); (300, 3, 8);
      (257, 2, 4); (1000, 2, 8); (65536, 2, 8) ]

let mix pc = (pc * 2654435761) land max_int

let test_paged_predictors_match_flat () =
  let rng = Random.State.make [| diff_seed |] in
  List.iter
    (fun (entries, bits) ->
      let cfg =
        { cfg4 with Sim.Config.predictor_entries = entries; predictor_bits = bits }
      in
      let mask = entries - 1 and hist_mask = (1 lsl bits) - 1 in
      let fail what i =
        Alcotest.failf "seed %d: %s, %d entries, %d bits: step %d differs"
          diff_seed what entries bits i
      in
      (* gshare: 2-bit counters starting weakly taken *)
      let g = Sim.Predict.Gshare.create cfg in
      let table = Array.make entries 2 and hist = ref 0 in
      for i = 1 to 20_000 do
        let pc = Random.State.int rng 4000 in
        let taken = pc land 3 <> 0 || Random.State.bool rng in
        let idx = (mix pc lxor !hist) land mask in
        let c = table.(idx) in
        let expect = (c >= 2) = taken in
        table.(idx) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
        hist := ((!hist lsl 1) lor (if taken then 1 else 0)) land hist_mask;
        if Sim.Predict.Gshare.predict_and_update g ~pc ~taken <> expect then
          fail "gshare" i
      done;
      (* path-based target predictor, packed counter lsl 2 | target *)
      List.iter
        (fun use_history ->
          let t = Sim.Predict.Target.create ~use_history cfg in
          let table = Array.make entries 0 and hist = ref 0 in
          for i = 1 to 20_000 do
            let pc = Random.State.int rng 4000 in
            let actual =
              if Random.State.int rng 4 = 0 then Random.State.int rng 6
              else pc mod 3
            in
            let idx =
              (if use_history then mix pc lxor !hist else mix pc) land mask
            in
            let e = table.(idx) in
            let counter = e lsr 2 and target = e land 3 in
            let expect = target = actual land 3 && actual < 4 in
            table.(idx) <-
              (if target = actual land 3 then (min 3 (counter + 1) lsl 2) lor target
               else if counter > 0 then ((counter - 1) lsl 2) lor target
               else actual land 3);
            hist := ((!hist lsl 2) lxor mix pc lxor actual) land hist_mask;
            if Sim.Predict.Target.predict_and_update t ~pc ~actual <> expect then
              fail (if use_history then "target" else "bimodal target") i
          done)
        [ true; false ])
    [ (65536, 16); (1000, 10); (300, 6); (100, 16) ]

(* The ring against a list model: push drops the oldest entry at capacity,
   pop of an empty stack answers None. *)
let test_ras_matches_list () =
  let rng = Random.State.make [| diff_seed |] in
  List.iter
    (fun capacity ->
      let r = Sim.Predict.Ras.create capacity in
      let model = ref [] in
      for i = 1 to 5_000 do
        if Random.State.int rng 5 < 3 then begin
          let v = Random.State.int rng 1000 in
          Sim.Predict.Ras.push r v;
          model := List.filteri (fun j _ -> j < capacity) (v :: !model)
        end
        else begin
          let expect = match !model with [] -> None | v :: rest -> model := rest; Some v in
          if Sim.Predict.Ras.pop r <> expect then
            Alcotest.failf "seed %d: capacity %d: pop at step %d differs"
              diff_seed capacity i
        end;
        checki "depth" (List.length !model) (Sim.Predict.Ras.depth r)
      done)
    [ 1; 2; 5; 64 ];
  let r = Sim.Predict.Ras.create 2 in
  checki "pop_or on underflow" (-1) (Sim.Predict.Ras.pop_or r (-1));
  Sim.Predict.Ras.push r 7;
  checki "pop_or" 7 (Sim.Predict.Ras.pop_or r (-1));
  raises_invalid "capacity 0" (fun () -> Sim.Predict.Ras.create 0)

(* --- occupancy windows ---------------------------------------------------- *)

let test_slots_window_shift_and_growth () =
  let module S = Sim.Occ.Slots in
  let t = S.create ~rows:2 ~hint:64 in
  S.take t ~row:0 40;
  S.take t ~row:0 41;
  S.take t ~row:1 41;
  S.release t ~below:40;
  (* the live window [40, 70] fits in half the rows: the prefix is dropped
     and the counts move down *)
  S.take t ~row:0 70;
  checki "40 kept across the shift" 1 (S.count t ~row:0 40);
  checki "41 kept across the shift" 1 (S.count t ~row:0 41);
  checki "row 1 kept across the shift" 1 (S.count t ~row:1 41);
  checki "new slot" 1 (S.count t ~row:0 70);
  checki "untouched slot" 0 (S.count t ~row:0 69);
  S.release t ~below:41;
  (* [41, 200] does not fit: the rows grow, keeping the live part *)
  S.take t ~row:0 200;
  checki "41 kept across growth" 1 (S.count t ~row:0 41);
  checki "70 kept across growth" 1 (S.count t ~row:0 70);
  checki "200 taken" 1 (S.count t ~row:0 200);
  checki "beyond the window" 0 (S.count t ~row:1 100_000);
  S.release t ~below:10;
  checki "a lower mark is ignored" 1 (S.count t ~row:0 41);
  raises_invalid "find_free below the mark" (fun () ->
      S.find_free t ~row:0 ~cap:1 ~from:40);
  raises_invalid "count below the mark" (fun () -> S.count t ~row:0 40);
  raises_invalid "take below the mark" (fun () -> S.take t ~row:1 0);
  raises_invalid "reserve below the mark" (fun () ->
      S.reserve t ~row:1 ~cap:2 ~from:3)

(* reserve/release against a hashtable of every reservation ever made *)
let test_slots_match_hashtable () =
  let module S = Sim.Occ.Slots in
  let rng = Random.State.make [| diff_seed |] in
  let t = S.create ~rows:3 ~hint:64 in
  let model = Hashtbl.create 1024 in
  let count row c = Option.value ~default:0 (Hashtbl.find_opt model (row, c)) in
  let mark = ref 0 in
  for i = 1 to 20_000 do
    match Random.State.int rng 10 with
    | 0 ->
      (* now and then the mark jumps past the whole window *)
      mark :=
        !mark
        + (if Random.State.int rng 20 = 0 then 5000 else Random.State.int rng 40);
      S.release t ~below:!mark
    | 1 ->
      let row = Random.State.int rng 3 in
      let c = !mark + Random.State.int rng 3000 in
      if S.count t ~row c <> count row c then
        Alcotest.failf "seed %d: count at step %d differs" diff_seed i
    | _ ->
      (* one reservation in 50 lands far ahead and makes the rows grow *)
      let row = Random.State.int rng 3 and cap = 1 + Random.State.int rng 3 in
      let from =
        !mark + Random.State.int rng (if Random.State.int rng 50 = 0 then 3000 else 120)
      in
      let expect = ref from in
      while count row !expect >= cap do incr expect done;
      Hashtbl.replace model (row, !expect) (count row !expect + 1);
      let got = S.reserve t ~row ~cap ~from in
      if got <> !expect then
        Alcotest.failf "seed %d: reserve at step %d: %d, expected %d" diff_seed
          i got !expect
  done

(* --- slot-count limits ---------------------------------------------------- *)

(* counts are bytes: 255 reservations fit in one cycle, 256 would wrap *)
let test_slot_count_limits () =
  let module S = Sim.Occ.Slots in
  let t = S.create ~rows:1 ~hint:64 in
  for _ = 1 to 255 do
    checki "cycle 5 has room" 5 (S.reserve t ~row:0 ~cap:255 ~from:5)
  done;
  checki "the 256th spills over" 6 (S.reserve t ~row:0 ~cap:255 ~from:5);
  raises_invalid "cap 256" (fun () -> S.reserve t ~row:0 ~cap:256 ~from:5);
  raises_invalid "cap 0" (fun () -> S.reserve t ~row:0 ~cap:0 ~from:5);
  let prog = Gen.square_sum_program 50 in
  let plan = Core.Partition.build Core.Heuristics.Control_flow prog in
  let cfg = { cfg4 with Sim.Config.ring_bandwidth = 256 } in
  raises_invalid "ring_bandwidth 256" (fun () -> Sim.Engine.run cfg plan);
  let cfg = { cfg4 with Sim.Config.issue_width = 256 } in
  raises_invalid "issue_width 256" (fun () -> Sim.Engine.run cfg plan);
  let cfg = { cfg4 with Sim.Config.issue_width = 255; ring_bandwidth = 255 } in
  checkb "255 is accepted" true
    ((Sim.Engine.run cfg plan).Sim.Engine.stats.Sim.Stats.cycles > 0)

(* --- allocation guard ----------------------------------------------------- *)

(* Words the domain has allocated: minor words plus words allocated directly
   in the major heap.  The simulator's counts repeat exactly for a build, so
   these bounds are deterministic guards, not timing tests.  Measured when
   set: compress/ts/8-PU ooo 0.52 words per simulated instruction, the
   synth program 11.5 kwords per run; the bounds leave about 2x of room. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let sim_words cfg prog level =
  let plan = Core.Cost.plan_for_level level prog in
  let trace = (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace in
  let prep = Sim.Engine.prepare plan trace in
  ignore (Sim.Engine.run_prepared cfg prep trace);
  let w0 = allocated () in
  let r = Sim.Engine.run_prepared cfg prep trace in
  let w1 = allocated () in
  (w1 -. w0, r.Sim.Engine.stats.Sim.Stats.dyn_insns)

let test_sim_allocation_bounds () =
  let prog = (Workloads.Suite.find "compress").Workloads.Registry.build () in
  let words, insns = sim_words cfg8 prog Core.Heuristics.Task_size in
  let per_insn = words /. float_of_int insns in
  if per_insn > 1.0 then
    Alcotest.failf "compress ts 8-PU: %.2f words per simulated insn (bound 1.0)"
      per_insn;
  let profile = List.hd Workloads.Synth.Profile.all in
  let prog = Workloads.Synth.generate ~profile ~seed:20261017 in
  let words, _ = sim_words cfg4 prog Core.Heuristics.Control_flow in
  if words > 24_000. then
    Alcotest.failf "synth %s cf 4-PU: %.0f words per run (bound 24000)"
      profile.Workloads.Synth.Profile.name words

let () =
  Alcotest.run "sim"
    [
      ( "predictors",
        [
          Alcotest.test_case "gshare bias" `Quick test_gshare_learns_bias;
          Alcotest.test_case "gshare pattern" `Quick test_gshare_learns_pattern;
          Alcotest.test_case "gshare pcs" `Quick test_gshare_distinguishes_pcs;
          Alcotest.test_case "target predictor" `Quick test_target_predictor;
          Alcotest.test_case "target slot > 3" `Quick
            test_target_above_four_never_correct;
          Alcotest.test_case "ras" `Quick test_ras;
          Alcotest.test_case "ras overflow" `Quick test_ras_overflow_drops_oldest;
          Alcotest.test_case "ras ring = list model" `Quick test_ras_matches_list;
          Alcotest.test_case "paged = flat tables" `Quick
            test_paged_predictors_match_flat;
        ] );
      ( "caches",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "lru" `Quick test_cache_lru_eviction;
          Alcotest.test_case "hierarchy latencies" `Quick
            test_hierarchy_latencies;
          Alcotest.test_case "bank contention" `Quick test_bank_contention;
          Alcotest.test_case "paged = flat cache" `Quick
            test_paged_cache_matches_flat;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "window shift and growth" `Quick
            test_slots_window_shift_and_growth;
          Alcotest.test_case "slots = hashtable" `Quick test_slots_match_hashtable;
          Alcotest.test_case "slot count limits" `Quick test_slot_count_limits;
        ] );
      ("layout", [ Alcotest.test_case "unique ids" `Quick test_layout_unique ]);
      ( "chopping",
        [
          Alcotest.test_case "tiles" `Quick test_chop_tiles;
          Alcotest.test_case "kinds" `Quick test_chop_kinds;
          Alcotest.test_case "included calls" `Quick test_chop_included_calls;
          Alcotest.test_case "nested inclusion" `Quick
            test_chop_nested_included_calls;
          Alcotest.test_case "recursion" `Quick test_chop_recursion;
          QCheck_alcotest.to_alcotest prop_chop_covers_packed;
        ] );
      ( "timing",
        [
          Alcotest.test_case "dependent chain" `Quick test_dependent_chain_slower;
          Alcotest.test_case "in-order slower" `Quick test_in_order_not_faster;
          Alcotest.test_case "ipc bounded" `Quick test_ipc_bounded;
        ] );
      ( "memory speculation",
        [
          Alcotest.test_case "violation then sync" `Quick
            test_violation_then_sync;
          Alcotest.test_case "1 PU never violates" `Quick
            test_single_pu_never_violates;
        ] );
      ( "superscalar",
        [
          Alcotest.test_case "runs" `Quick test_superscalar_runs;
          Alcotest.test_case "wider not slower" `Quick
            test_superscalar_wider_not_slower;
          Alcotest.test_case "bimodal config" `Quick test_bimodal_config_runs;
        ] );
      ( "engine",
        [
          Alcotest.test_case "all retired" `Quick test_all_insns_retired;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "scaling sane" `Quick test_more_pus_not_slower;
          Alcotest.test_case "release points" `Quick
            test_release_points_unserialise;
          QCheck_alcotest.to_alcotest prop_engine_retires_everything;
          Alcotest.test_case "allocation bounds" `Quick
            test_sim_allocation_bounds;
        ] );
    ]
