(** Task-selection heuristic levels and tunables (paper §3).

    The four levels match the four bars of the paper's Figure 5; each level
    includes the previous ones, exactly as in the evaluation:
    - [Basic_block]: every basic block is a task;
    - [Control_flow]: multi-block tasks bounded to [max_targets] successors,
      exploiting control-flow reconvergence (§3.3);
    - [Data_dependence]: additionally steer growth along profiled def-use
      chains (§3.4), applied on top of the control-flow heuristic;
    - [Task_size]: additionally unroll short loops and include short function
      calls (§3.2), applied on top of both.

    [Feedback] goes beyond the paper: starting from the [Task_size] plan it
    greedily moves task boundaries along dominator edges, keeping a move
    only when it lowers the static plan cost predicted by {!Analysis.Cost}
    fed with {!Depend} criticality pairs (see [Core.Cost]). *)

type level =
  | Basic_block
  | Control_flow
  | Data_dependence
  | Task_size
  | Feedback

val all_levels : level list
(** The paper's four levels, in Figure-5 order — [Feedback] is excluded so
    every report that reproduces a paper figure keeps its exact grid. *)

val extended_levels : level list
(** {!all_levels} plus [Feedback] — the grid for cost-model reports. *)

val level_name : level -> string
(** Long name ([basic-block], ..., [feedback]) for human-readable output. *)

val level_tag : level -> string
(** Stable short tag ([bb]/[cf]/[dd]/[ts]/[fb]) — the encoding of every
    report column, JSON export and the service protocol. *)

val level_of_string : string -> (level, string) result
(** Inverse of {!level_tag} and {!level_name}: accepts either spelling;
    [Error] names the unknown string and lists the valid tags. *)

type params = {
  max_targets : int;   (** N successors trackable by hardware (paper: 4) *)
  loop_thresh : int;   (** unroll loops below this static size (paper: 30) *)
  call_thresh : int;   (** include calls below this dynamic size (paper: 30) *)
  max_task_blocks : int;
      (** safety cap on blocks explored per task, far above anything the
          heuristics produce on sensible CFGs *)
}

val default : params
