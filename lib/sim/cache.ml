(* Set-associative cache model, LRU replacement.

   Tags and ages are rows of [ways] ints per set in two Occ.Pages tables:
   a simulation run creates three caches (two L1s and the L2) and probes
   them once per load and per block fetch, so per-set subarrays would cost
   an extra indirection per probe and tens of thousands of small
   allocations per run, and flat whole-cache arrays would make every run
   allocate and fill the full 4 MB L2 even when it touches a few hundred
   sets.  A page of 256 sets is created on the first access to one of
   them, with the same initial contents as the flat arrays had. *)

type t = {
  sets : int;
  ways : int;
  block_words : int;
  (* per set: tags of the ways (-1 = invalid); lru ages, 0 = most recent *)
  tags : Occ.Pages.t;
  lru : Occ.Pages.t;
  mutable accesses : int;
  mutable misses : int;
}

let create ~sets ~ways ~block_words =
  {
    sets;
    ways;
    block_words;
    tags = Occ.Pages.create ~rows:sets ~width:ways ~init:(fun _ -> -1);
    lru = Occ.Pages.create ~rows:sets ~width:ways ~init:(fun w -> w);
    accesses = 0;
    misses = 0;
  }

let touch ways (lru : int array) base way =
  let age = lru.(base + way) in
  for w = base to base + ways - 1 do
    if lru.(w) < age then lru.(w) <- lru.(w) + 1
  done;
  lru.(base + way) <- 0

let access t addr =
  t.accesses <- t.accesses + 1;
  let block = addr / t.block_words in
  let set = block mod t.sets in
  let tag = block / t.sets in
  let ways = t.ways in
  let tags = Occ.Pages.page t.tags set in
  let lru = Occ.Pages.page t.lru set in
  let base = Occ.Pages.offset t.tags set in
  let found = ref (-1) in
  for w = 0 to ways - 1 do
    if tags.(base + w) = tag then found := w
  done;
  if !found >= 0 then begin
    touch ways lru base !found;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict LRU way *)
    let victim = ref 0 in
    for w = 0 to ways - 1 do
      if lru.(base + w) > lru.(base + !victim) then victim := w
    done;
    tags.(base + !victim) <- tag;
    touch ways lru base !victim;
    false
  end

let accesses t = t.accesses
let misses t = t.misses

module Hierarchy = struct
  type h = {
    cfg : Config.t;
    l1d_ : t;
    l1i_ : t;
    l2_ : t;
  }

  let create (cfg : Config.t) =
    {
      cfg;
      l1d_ =
        create ~sets:cfg.Config.l1_sets ~ways:cfg.Config.l1_ways
          ~block_words:cfg.Config.l1_block_words;
      l1i_ =
        create ~sets:cfg.Config.l1_sets ~ways:cfg.Config.l1_ways
          ~block_words:cfg.Config.l1_block_words;
      l2_ =
        create ~sets:cfg.Config.l2_sets ~ways:cfg.Config.l2_ways
          ~block_words:cfg.Config.l1_block_words;
    }

  let through h l1 addr =
    if access l1 addr then h.cfg.Config.l1_latency
    else if access h.l2_ addr then
      h.cfg.Config.l1_latency + h.cfg.Config.l2_latency
    else
      h.cfg.Config.l1_latency + h.cfg.Config.l2_latency
      + h.cfg.Config.mem_latency

  let dload h addr = through h h.l1d_ addr

  let ifetch h addr =
    let lat = through h h.l1i_ addr in
    if lat = h.cfg.Config.l1_latency then 0 else lat

  let l1d h = h.l1d_
  let l1i h = h.l1i_
  let l2 h = h.l2_
end
