(** A minimal JSON tree, printer and parser.

    The experiment engine exports machine-readable results
    ([bench/results.json]); the container has no JSON library, so this is a
    small self-contained implementation.  Printing is deterministic (object
    fields keep their construction order) and numbers round-trip: floats are
    printed with 17 significant digits and always contain a ['.'] or
    exponent so they re-parse as [Float], never [Int]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** [indent] (default true) pretty-prints with two-space indentation. *)

val to_file : string -> t -> unit
(** [to_file path t] writes the indented {!to_string} of [t] plus a
    trailing newline to [path].
    @raise Sys_error if [path] cannot be opened or written. *)

val parse : string -> (t, string) result
(** Recursive-descent parser for the exact grammar [to_string] emits (plus
    arbitrary whitespace); the standard JSON escapes (backslash-quote,
    backslash-backslash, [b f n r t], [uXXXX]) are understood, and escaped
    non-ASCII code points are decoded to UTF-8. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing fields or non-objects. *)
