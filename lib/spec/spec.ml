module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module History = Lineup_history.History

type cls =
  | Queue
  | Stack
  | Set
  | Dictionary
  | Counter
  | Other

type 'st outcome =
  | Return of Value.t * 'st
  | Blocked

type 'st t = {
  name : string;
  cls : cls;
  initial : 'st;
  step : 'st -> Invocation.t -> 'st outcome;
  state_key : 'st -> string;
}

type packed = Packed : 'st t -> packed

let run spec invs =
  let rec go st = function
    | [] -> []
    | inv :: rest -> (
      match spec.step st inv with
      | Return (v, st') -> (inv, Some v) :: go st' rest
      | Blocked -> [ inv, None ])
  in
  go spec.initial invs

type verdict =
  | Accept
  | Reject
  | Unsupported of string

let first_unjustified decide h =
  List.find_map
    (fun e ->
      match decide (History.restrict_to_pending h e) with
      | Accept -> None
      | (Reject | Unsupported _) as v -> Some (e, v))
    (History.pending_ops h)
