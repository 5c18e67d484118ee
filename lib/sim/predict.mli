(** Control-flow prediction hardware (paper §4.2).

    - {!Gshare}: intra-task conditional branch prediction — 16-bit global
      history XORed into a 64K-entry table of 2-bit counters.
    - {!Target}: the inter-task path-based scheme of Jacobson et al. [9] —
      16-bit path history over task identifiers, 64K entries of a 2-bit
      saturating counter plus a 2-bit target number, predicting *which of
      the task's ≤ 4 successors* comes next.  Also reused for intra-task
      indexed jumps.
    - {!Ras}: return address stack for call/return task sequencing.

    The 64K-entry tables are allocated in pages on first touch
    ({!Occ.Pages}); every entry still starts at the value the flat table
    had. *)

module Gshare : sig
  type t

  val create : Config.t -> t

  val predict_and_update : t -> pc:int -> taken:bool -> bool
  (** Returns whether the prediction was correct, then trains. *)
end

module Target : sig
  type t

  val create : ?use_history:bool -> Config.t -> t
  (** [use_history:false] degrades the scheme to a per-task bimodal
      predictor (no path correlation) — the ablation contrasting the
      paper's path-based choice (Jacobson et al.) with a simpler table. *)

  val predict_and_update : t -> pc:int -> actual:int -> bool
  (** Predict a target number for the task at [pc] given the current path
      history, compare against [actual], train, and fold [actual] into the
      path history.  Returns whether the prediction was correct. *)
end

module Ras : sig
  type t

  val create : int -> t
  (** A stack of the given capacity, at least 1 (else [Invalid_argument]);
      a fixed ring of ints. *)

  val push : t -> int -> unit
  (** On a full stack the oldest entry is dropped. *)

  val pop : t -> int option
  (** [None] on underflow (prediction necessarily wrong). *)

  val pop_or : t -> int -> int
  (** [pop_or t d] is {!pop} without the option: the popped entry, or [d]
      on underflow. *)

  val depth : t -> int
end
