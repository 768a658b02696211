(* Shared helpers for the implementations under test. *)

module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Loc_name = Lineup_runtime.Loc_name

let unexpected class_name (inv : Invocation.t) =
  Fmt.invalid_arg "%s: unexpected invocation %a" class_name Invocation.pp inv

(* Universe construction helpers. *)
let inv ?arg name = Invocation.make ?arg name
let inv_int name n = Invocation.make ~arg:(Value.int n) name
