(** A minimal JSON parser for the test suite: one line of a
    {!Lineup_observe.Trace} file, one metrics summary, one shard stats
    file.

    It accepts standard JSON (objects, arrays, strings with the usual
    escapes including [\uXXXX], numbers, booleans, [null]); numbers are
    represented as [float], the only number type JSON has. The parser is a
    total function: malformed input is an [Error], never an exception.

    It is the oracle of the trace codec's scanner
    ({!Lineup_history.Trace_event.parse}), which accepts exactly what it
    accepts after [String.trim]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [parse s] parses exactly one JSON document spanning the whole string
    (leading/trailing whitespace allowed). The error message carries the
    byte offset of the failure. *)

val member : string -> t -> t option
(** [member k v] is field [k] of object [v]; [None] when [v] is not an
    object or has no such field. *)

val to_int : t -> int option
(** [Some n] iff the value is a number holding an exact integer. *)

val to_str : t -> string option
(** [Some s] iff the value is a string. *)
