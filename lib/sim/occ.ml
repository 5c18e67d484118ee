(* Flat occupancy structures for the event-driven simulator core.

   The engine's resource model is "reserve the earliest free slot at or
   after cycle [t]": D-cache/ARB bank ports, ring injection bandwidth,
   issue and commit bandwidth.  The pre-event core kept these as
   tuple-keyed hashtables ((bank, cycle) -> unit), paying an allocation
   and a polymorphic hash per probe and advancing cycle by cycle.  Here a
   resource is a row of byte counts over a sliding window of cycles:
   probing is one unsafe byte read, and finding the next free slot skips
   over a fully booked region in a tight scan instead of re-hashing each
   cycle.  A reservation stays until its owner releases everything below
   a cycle no later probe can reach, exactly like the hashtable entries it
   replaces (including reservations made by simulation attempts that were
   later squashed; see DESIGN.md §10).  The window then drops the
   released prefix instead of growing, so its length follows the span of
   cycles in flight, not the length of the run.

   [Intmap] is the companion scratch map: open-addressing int -> int with
   O(1) whole-map invalidation by generation stamp, so the per-task /
   per-flight maps of the old core (local store forwarding, ARB
   footprints, per-flight store maps) become steady-state-allocation-free
   reusable buffers. *)

module Slots = struct
  (* Row [r] holds the count of cycle [base + i] at byte [i], for
     [i < cap].  Cycles below [mark] have been released: no probe may go
     there any more, and the next time a row would grow it first drops the
     released prefix by shifting the live part down to index 0. *)
  type t = {
    mutable rows : Bytes.t array;
    mutable cap : int;  (* window length of every row, in cycles *)
    mutable base : int;  (* absolute cycle of byte 0 *)
    mutable mark : int;  (* lowest cycle a probe may ask for *)
  }

  let create ~rows ~hint =
    let hint = Int.max 64 hint in
    {
      rows = Array.init rows (fun _ -> Bytes.make hint '\000');
      cap = hint;
      base = 0;
      mark = 0;
    }

  let release t ~below = if below > t.mark then t.mark <- below

  let[@inline never] below_mark t time =
    invalid_arg
      (Printf.sprintf "Occ.Slots: cycle %d is below the released mark %d" time
         t.mark)

  (* Make cycle [time] addressable.  Dropping the released prefix comes
     first; the rows grow only when the live window [mark, time] would
     still fill more than half of them, so every shift is paid for by at
     least cap/2 cycles of progress. *)
  let ensure t time =
    if time - t.base >= t.cap then begin
      let drop = Int.min (t.mark - t.base) t.cap in
      let keep = t.cap - drop in
      let need = time - t.mark + 1 in
      if 2 * need > t.cap then begin
        let ncap = Int.max (2 * t.cap) (2 * need) in
        t.rows <-
          Array.map
            (fun b ->
              let nb = Bytes.make ncap '\000' in
              Bytes.blit b drop nb 0 keep;
              nb)
            t.rows;
        t.cap <- ncap
      end
      else
        Array.iter
          (fun b ->
            Bytes.blit b drop b 0 keep;
            Bytes.fill b keep drop '\000')
          t.rows;
      t.base <- t.mark
    end

  let count t ~row time =
    if time < t.mark then below_mark t time
    else if time - t.base >= t.cap then 0
    else Char.code (Bytes.unsafe_get t.rows.(row) (time - t.base))

  let take t ~row time =
    if time < t.mark then below_mark t time;
    ensure t time;
    let b = t.rows.(row) in
    let i = time - t.base in
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) + 1))

  (* earliest cycle >= [from] whose count is below [cap] — the next free
     event on this resource; everything in between is fully booked and is
     jumped over without per-cycle bookkeeping *)
  let find_free t ~row ~cap ~from =
    if from < t.mark then below_mark t from
    else begin
      let base = t.base in
      let limit = t.cap in
      let b = t.rows.(row) in
      let c = ref (from - base) in
      while !c < limit && Char.code (Bytes.unsafe_get b !c) >= cap do incr c done;
      !c + base
    end

  (* find_free + take in one step.  Counts are bytes, so a capacity above
     255 could never be reached and would wrap a full slot back to 0. *)
  let reserve t ~row ~cap ~from =
    if cap < 1 || cap > 255 then
      invalid_arg
        (Printf.sprintf "Occ.Slots.reserve: cap %d outside 1..255" cap);
    let c = find_free t ~row ~cap ~from in
    take t ~row c;
    c
end

module Intmap = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable stamps : int array;  (* slot live iff stamps.(i) = gen *)
    mutable mask : int;
    mutable gen : int;
    mutable card : int;
  }

  let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

  let create hint =
    let cap = pow2 (Int.max 16 (2 * hint)) 16 in
    {
      keys = Array.make cap 0;
      vals = Array.make cap 0;
      stamps = Array.make cap 0;
      mask = cap - 1;
      gen = 1;
      card = 0;
    }

  let clear t =
    t.gen <- t.gen + 1;
    t.card <- 0

  let cardinal t = t.card

  let hash k = (k * 0x2545F4914F6CDD1D) land max_int

  (* value for [key], or -1 when absent; stored values must be >= 0 *)
  let find t key =
    let mask = t.mask in
    let i = ref (hash key land mask) in
    let r = ref (-2) in
    while !r = -2 do
      if t.stamps.(!i) <> t.gen then r := -1
      else if t.keys.(!i) = key then r := t.vals.(!i)
      else i := (!i + 1) land mask
    done;
    !r

  let mem t key = find t key >= 0

  let rec set t key v =
    let mask = t.mask in
    let i = ref (hash key land mask) in
    let placed = ref false in
    let done_ = ref false in
    while not !done_ do
      if t.stamps.(!i) <> t.gen then begin
        (* fresh slot *)
        t.keys.(!i) <- key;
        t.vals.(!i) <- v;
        t.stamps.(!i) <- t.gen;
        t.card <- t.card + 1;
        placed := true;
        done_ := true
      end
      else if t.keys.(!i) = key then begin
        t.vals.(!i) <- v;
        done_ := true
      end
      else i := (!i + 1) land mask
    done;
    if !placed && 2 * t.card > mask then grow t

  and grow t =
    let old_keys = t.keys and old_vals = t.vals and old_stamps = t.stamps in
    let old_gen = t.gen in
    let ncap = 2 * (t.mask + 1) in
    t.keys <- Array.make ncap 0;
    t.vals <- Array.make ncap 0;
    t.stamps <- Array.make ncap 0;
    t.mask <- ncap - 1;
    t.gen <- 1;
    t.card <- 0;
    Array.iteri
      (fun i s -> if s = old_gen then set t old_keys.(i) old_vals.(i))
      old_stamps

  (* iterate live (key, value) pairs, unspecified order *)
  let iter t f =
    for i = 0 to t.mask do
      if t.stamps.(i) = t.gen then f t.keys.(i) t.vals.(i)
    done
end

module Pages = struct
  (* Row [r] lives in page [r lsr page_bits] at offset
     [(r land page_mask) * width]; a page is [||] until first touched. *)
  let page_bits = 8
  let page_mask = (1 lsl page_bits) - 1

  type t = {
    rows : int;
    width : int;
    init : int -> int;
    pages : int array array;
  }

  let create ~rows ~width ~init =
    let n = (rows + page_mask) lsr page_bits in
    { rows; width; init; pages = Array.make n [||] }

  let[@inline never] fill t p =
    let rows_here = Int.min (page_mask + 1) (t.rows - (p lsl page_bits)) in
    let w = t.width in
    let a = Array.init (rows_here * w) (fun i -> t.init (i mod w)) in
    t.pages.(p) <- a;
    a

  let[@inline] page t r =
    let p = r lsr page_bits in
    let a = t.pages.(p) in
    if Array.length a > 0 then a else fill t p

  let[@inline] offset t r = (r land page_mask) * t.width
end
