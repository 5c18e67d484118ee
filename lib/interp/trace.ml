(* Packed dynamic traces: one flat word per event, one shared address pool.

   Event word layout (63-bit OCaml int, all fields unsigned):

     bits 50..61  fid          (12 bits, 4096 functions)
     bits 34..49  blk          (16 bits, 65536 blocks per function)
     bits  0..33  addr_offset  (34 bits into the shared address pool)

   packed.(n_events) is a sentinel whose addr_offset is the total address
   count, so addr_count i = offset (i+1) - offset i without a separate
   per-event count field.

   The address pool stores two addresses per word (31 unsigned bits each)
   until an address that does not fit shows up, at which point the whole
   pool is re-encoded one address per word ([awide]).  The workload suite
   never widens (addresses stay below the 2^20 stack base plus small
   offsets); the fallback keeps arbitrary generated programs exact. *)

let fid_bits = 12
let blk_bits = 16
let off_bits = 34
let fid_shift = off_bits + blk_bits
let max_fid = 1 lsl fid_bits
let max_blk = 1 lsl blk_bits
let max_off = 1 lsl off_bits
let narrow_bits = 31
let narrow_limit = 1 lsl narrow_bits
let narrow_mask = narrow_limit - 1

let encode ~fid ~blk ~off = (fid lsl fid_shift) lor (blk lsl off_bits) lor off
let word_fid w = w lsr fid_shift
let word_blk w = (w lsr off_bits) land (max_blk - 1)
let word_off w = w land (max_off - 1)

type t = {
  prog : Ir.Prog.t;
  fnames : string array;
  funcs : Ir.Func.t array;
  packed : int array;
  apool : int array;
  awide : bool;
  n_events : int;
  n_addrs : int;
  dyn_insns : int;
  sizes : int array array;
}

let fid t name =
  let n = Array.length t.fnames in
  let rec find i =
    if i >= n then raise Not_found
    else if String.equal t.fnames.(i) name then i
    else find (i + 1)
  in
  find 0

let num_events t = t.n_events
let get_fid t i = word_fid t.packed.(i)
let get_blk t i = word_blk t.packed.(i)
let addr_offset t i = word_off t.packed.(i)
let addr_count t i = word_off t.packed.(i + 1) - word_off t.packed.(i)

let addr_at t k =
  if t.awide then t.apool.(k)
  else (t.apool.(k lsr 1) lsr (narrow_bits * (k land 1))) land narrow_mask

let get_addr t i k = addr_at t (addr_offset t i + k)

let iter_addrs t i f =
  let base = addr_offset t i in
  for k = base to base + addr_count t i - 1 do
    f (addr_at t k)
  done

let event_addrs t i =
  let base = addr_offset t i in
  Array.init (addr_count t i) (fun k -> addr_at t (base + k))

let block_at t i = Ir.Func.block t.funcs.(get_fid t i) (get_blk t i)
let size_at t i = t.sizes.(get_fid t i).(get_blk t i)
let block_size t ~fid ~blk = t.sizes.(fid).(blk)

(* --- memory accounting ---------------------------------------------------- *)

let heap_words t =
  let sizes_words =
    Array.fold_left (fun acc row -> acc + 1 + Array.length row) 0 t.sizes
  in
  (1 + Array.length t.packed) + (1 + Array.length t.apool)
  + (1 + Array.length t.sizes)
  + sizes_words

let bytes t = heap_words t * (Sys.word_size / 8)

(* --- self-check ------------------------------------------------------------ *)

let mem_insns (b : Ir.Block.t) =
  Array.fold_left
    (fun acc insn -> if Ir.Insn.is_mem insn then acc + 1 else acc)
    0 b.Ir.Block.insns

let check t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if Array.length t.packed <> t.n_events + 1 then
    fail "packed length %d, expected %d (events + sentinel)"
      (Array.length t.packed) (t.n_events + 1)
  else begin
    let err = ref None in
    let report e = if !err = None then err := Some e in
    let nfuncs = Array.length t.funcs in
    let insns = ref 0 in
    for i = 0 to t.n_events - 1 do
      let f = get_fid t i and b = get_blk t i in
      if f < 0 || f >= nfuncs then
        report (Printf.sprintf "event %d: fid %d out of range" i f)
      else if b < 0 || b >= Ir.Func.num_blocks t.funcs.(f) then
        report
          (Printf.sprintf "event %d: block L%d out of range for %s" i b
             t.fnames.(f))
      else begin
        let blk = Ir.Func.block t.funcs.(f) b in
        let count = addr_count t i in
        if count < 0 then
          report
            (Printf.sprintf "event %d: address offsets not monotone (%d)" i
               count)
        else if count <> mem_insns blk then
          report
            (Printf.sprintf
               "event %d: %d addresses for %d memory instructions (%s/L%d)" i
               count (mem_insns blk) t.fnames.(f) b);
        if t.sizes.(f).(b) <> Ir.Block.size blk then
          report
            (Printf.sprintf "size table stale at %s/L%d: %d <> %d"
               t.fnames.(f) b
               t.sizes.(f).(b)
               (Ir.Block.size blk));
        insns := !insns + Ir.Block.size blk
      end
    done;
    (match !err with
    | Some _ -> ()
    | None ->
      if addr_offset t 0 <> 0 && t.n_events > 0 then
        report
          (Printf.sprintf "first event at address offset %d, expected 0"
             (addr_offset t 0));
      if word_off t.packed.(t.n_events) <> t.n_addrs then
        report
          (Printf.sprintf "sentinel offset %d, pool has %d addresses"
             (word_off t.packed.(t.n_events))
             t.n_addrs);
      if !insns <> t.dyn_insns then
        report
          (Printf.sprintf "event sizes sum to %d, trace has %d" !insns
             t.dyn_insns));
    match !err with None -> Ok () | Some e -> Error e
  end

(* --- builder --------------------------------------------------------------- *)

module Builder = struct
  type buf = {
    mutable ewords : int array;
    mutable n : int;
    mutable awords : int array;
    mutable na : int;
    mutable wide : bool;
  }

  type t = buf

  let initial = 256

  let create () =
    {
      ewords = Array.make initial 0;
      n = 0;
      awords = Array.make initial 0;
      na = 0;
      wide = false;
    }

  let grow_events b need =
    if need > Array.length b.ewords then begin
      let cap = max need (2 * Array.length b.ewords) in
      let fresh = Array.make cap 0 in
      Array.blit b.ewords 0 fresh 0 b.n;
      b.ewords <- fresh
    end

  let grow_addr_words b need =
    if need > Array.length b.awords then begin
      let cap = max need (2 * Array.length b.awords) in
      let fresh = Array.make cap 0 in
      Array.blit b.awords 0 fresh 0 (Array.length b.awords);
      b.awords <- fresh
    end

  let start_event b ~fid ~blk =
    if fid < 0 || fid >= max_fid then
      invalid_arg
        (Printf.sprintf "Trace.Builder.start_event: fid %d exceeds %d bits"
           fid fid_bits);
    if blk < 0 || blk >= max_blk then
      invalid_arg
        (Printf.sprintf "Trace.Builder.start_event: block %d exceeds %d bits"
           blk blk_bits);
    grow_events b (b.n + 1);
    b.ewords.(b.n) <- encode ~fid ~blk ~off:b.na;
    b.n <- b.n + 1

  let widen b =
    let cap = max initial (2 * b.na) in
    let fresh = Array.make cap 0 in
    for k = 0 to b.na - 1 do
      fresh.(k) <-
        (b.awords.(k lsr 1) lsr (narrow_bits * (k land 1))) land narrow_mask
    done;
    b.awords <- fresh;
    b.wide <- true

  let push_addr b v =
    if b.na >= max_off then
      invalid_arg "Trace.Builder.push_addr: address pool exceeds 2^34";
    if (not b.wide) && (v < 0 || v >= narrow_limit) then widen b;
    if b.wide then begin
      grow_addr_words b (b.na + 1);
      b.awords.(b.na) <- v
    end
    else begin
      let w = b.na lsr 1 in
      grow_addr_words b (w + 1);
      b.awords.(w) <- b.awords.(w) lor (v lsl (narrow_bits * (b.na land 1)))
    end;
    b.na <- b.na + 1

  let num_events b = b.n

  let decode_addr b k =
    if b.wide then b.awords.(k)
    else (b.awords.(k lsr 1) lsr (narrow_bits * (k land 1))) land narrow_mask

  let last_event_addrs b =
    if b.n = 0 then [||]
    else begin
      let base = word_off b.ewords.(b.n - 1) in
      Array.init (b.na - base) (fun k -> decode_addr b (base + k))
    end

  let finish b ~prog ~fnames ~funcs ~dyn_insns =
    grow_events b (b.n + 1);
    b.ewords.(b.n) <- encode ~fid:0 ~blk:0 ~off:b.na;
    let packed = Array.sub b.ewords 0 (b.n + 1) in
    let pool_len = if b.wide then b.na else (b.na + 1) / 2 in
    let apool = Array.sub b.awords 0 pool_len in
    let sizes =
      Array.map
        (fun f ->
          Array.init (Ir.Func.num_blocks f) (fun l ->
              Ir.Block.size (Ir.Func.block f l)))
        funcs
    in
    {
      prog;
      fnames;
      funcs;
      packed;
      apool;
      awide = b.wide;
      n_events = b.n;
      n_addrs = b.na;
      dyn_insns;
      sizes;
    }
end
