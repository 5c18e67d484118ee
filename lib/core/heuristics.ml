type level =
  | Basic_block
  | Control_flow
  | Data_dependence
  | Task_size
  | Feedback

let all_levels = [ Basic_block; Control_flow; Data_dependence; Task_size ]
let extended_levels = all_levels @ [ Feedback ]

let level_name = function
  | Basic_block -> "basic-block"
  | Control_flow -> "control-flow"
  | Data_dependence -> "data-dependence"
  | Task_size -> "task-size"
  | Feedback -> "feedback"

let level_tag = function
  | Basic_block -> "bb"
  | Control_flow -> "cf"
  | Data_dependence -> "dd"
  | Task_size -> "ts"
  | Feedback -> "fb"

let level_of_string s =
  match
    List.find_opt
      (fun l -> String.equal s (level_tag l) || String.equal s (level_name l))
      extended_levels
  with
  | Some l -> Ok l
  | None ->
    Error
      (Printf.sprintf "unknown heuristic level %S (expected one of %s)" s
         (String.concat ", " (List.map level_tag extended_levels)))

type params = {
  max_targets : int;
  loop_thresh : int;
  call_thresh : int;
  max_task_blocks : int;
}

let default =
  { max_targets = 4; loop_thresh = 30; call_thresh = 30; max_task_blocks = 512 }
