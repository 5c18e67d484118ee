(** Flat occupancy windows and generation-stamped scratch maps — the data
    layer of the event-driven simulator core (DESIGN.md §10).

    A {!Slots.t} models a banked resource with a per-cycle capacity (ARB
    bank ports, ring injection slots) as rows of byte counts over a
    sliding window of cycles.  Probes are O(1) byte reads and
    {!Slots.find_free} jumps over fully booked regions in one scan — the
    event-queue replacement for the old per-cycle [Hashtbl.mem] loops.
    Reservations persist until {!Slots.release} drops every cycle below a
    mark; the window then reuses that prefix instead of growing, so its
    size follows the cycles in flight rather than the length of the run.

    An {!Intmap.t} is an open-addressing [int -> int] map whose {!Intmap.clear}
    is O(1) (generation bump), so per-task and per-flight scratch maps can
    be reused without allocating or rehashing in the steady state.

    A {!Pages.t} is a table of fixed-width int rows allocated in pages of
    256 rows on first touch, so the large cache and predictor tables of a
    run cost memory only for the sets and entries the run reaches. *)

module Slots : sig
  type t

  val create : rows:int -> hint:int -> t
  (** [rows] resources, each with an initial time capacity of [hint]
      cycles (grown geometrically on demand). *)

  val release : t -> below:int -> unit
  (** Promise that no later probe asks for a cycle below [below]; the
      reservations there may be dropped.  The mark only moves up: a lower
      [below] than an earlier one is ignored. *)

  val count : t -> row:int -> int -> int
  (** Reservations currently held at (row, cycle); 0 beyond the window.
      Every probe ([count], [take], [find_free], [reserve]) raises
      [Invalid_argument] for a cycle below the released mark. *)

  val take : t -> row:int -> int -> unit
  (** Add one reservation at (row, cycle), growing if needed. *)

  val find_free : t -> row:int -> cap:int -> from:int -> int
  (** Earliest cycle [>= from] with fewer than [cap] reservations. *)

  val reserve : t -> row:int -> cap:int -> from:int -> int
  (** [find_free] then [take]; returns the reserved cycle.  Counts are
      bytes, so [cap] must be in [1..255]; otherwise [Invalid_argument]. *)
end

module Intmap : sig
  type t

  val create : int -> t
  (** Capacity hint (entries); the table grows past it on demand. *)

  val clear : t -> unit
  (** O(1): invalidates every entry by bumping the generation. *)

  val cardinal : t -> int

  val find : t -> int -> int
  (** Value for the key, or [-1] when absent.  Stored values must be
      non-negative. *)

  val mem : t -> int -> bool

  val set : t -> int -> int -> unit
  (** Insert or replace.  The value must be non-negative. *)

  val iter : t -> (int -> int -> unit) -> unit
end

module Pages : sig
  type t

  val create : rows:int -> width:int -> init:(int -> int) -> t
  (** [rows] rows of [width] ints; entry [c] of every row starts as
      [init c].  Nothing but the page directory is allocated here. *)

  val page : t -> int -> int array
  (** The page holding row [r] ([0 <= r < rows]), allocated and
      initialised on its first request; row [r] starts at [offset t r]. *)

  val offset : t -> int -> int
end
