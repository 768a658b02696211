(* Shared test helpers. *)

module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Event = Lineup_history.Event
module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history

let inv ?arg name = Invocation.make ?arg name
let inv_int name n = Invocation.make ~arg:(Value.int n) name

(* Compact history construction: a list of (tid, op_index, action) where the
   action is either a call or a return. *)
let call tid op_index name ?arg () = Event.call ~tid ~op_index (inv ?arg name)
let ret tid op_index v = Event.return ~tid ~op_index v

let history ?stuck events = History.make ?stuck events

(* A serial history from (tid, name, arg, resp) tuples. *)
let serial ?stuck entries =
  Serial_history.make
    ~stuck:(Option.map (fun (tid, name, arg) -> tid, Invocation.make ~arg name) stuck)
    (List.map
       (fun (tid, name, arg, resp) -> { Serial_history.tid; inv = Invocation.make ~arg name; resp })
       entries)

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let history_t : History.t Alcotest.testable = Alcotest.testable History.pp History.equal

let serial_t : Serial_history.t Alcotest.testable =
  Alcotest.testable Serial_history.pp Serial_history.equal

let test name f = Alcotest.test_case name `Quick f

(* The distinct histories of one whole exploration under [config] (it does
   not stop at a violation, unlike [Check.run]), sorted, and its
   statistics. *)
let history_set ?admit config ~adapter ~test =
  let seen = Hashtbl.create 64 in
  let stats =
    Lineup.Harness.run_phase ?admit config ~adapter ~test ~on_history:(fun r ->
        Hashtbl.replace seen (History.events r.history, History.is_stuck r.history) ();
        `Continue)
  in
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []), stats

(* Value generator for qcheck. *)
let value_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let base =
            oneof
              [
                return Value.Unit;
                map Value.bool bool;
                map Value.int small_signed_int;
                map Value.str (string_size ~gen:printable (int_bound 8));
                return Value.Fail;
                return (Value.Opt None);
              ]
          in
          if n = 0 then base
          else
            frequency
              [
                3, base;
                1, map2 Value.pair (self (n / 2)) (self (n / 2));
                1, map Value.list (list_size (int_bound 3) (self (n / 3)));
                1, map Value.some (self (n / 2));
              ])
        n)

let value_arb = QCheck.make ~print:Value.to_string value_gen
