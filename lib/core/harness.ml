module Event = Lineup_history.Event
module History = Lineup_history.History
module Rt = Lineup_runtime.Rt
module Exec_ctx = Lineup_runtime.Exec_ctx
module Explore = Lineup_scheduler.Explore

type run_result = {
  history : History.t;
  outcome : Explore.exec_outcome;
  log : Exec_ctx.entry list;
}

let observer_tid (test : Test_matrix.t) = Array.length test.columns

let callbacks ~(adapter : Adapter.t) ~(test : Test_matrix.t) ~on_history =
  let events : Event.t list ref = ref [] in
  let instance : Adapter.instance option ref = ref None in
  let record e = events := e :: !events in
  let run_op (inst : Adapter.instance) ~tid ~op_index inv =
    record (Event.call ~tid ~op_index inv);
    if Exec_ctx.logging_enabled () then Exec_ctx.log (Exec_ctx.Op_start { tid; op_index });
    let resp = inst.invoke inv in
    (* The return marker is its own scheduling point (no-op in serial mode):
       the step recording the return event then carries an event footprint,
       so the partial-order reduction never commutes two returns — if it
       stayed inside the operation's last access step, two independent
       accesses' steps would swap and silently reorder the history. *)
    Rt.sched Rt.Return_boundary;
    if Exec_ctx.logging_enabled () then Exec_ctx.log (Exec_ctx.Op_end { tid; op_index });
    record (Event.return ~tid ~op_index resp)
  in
  let column_body inst tid invs () =
    List.iteri
      (fun op_index inv ->
        Rt.op_boundary ();
        run_op inst ~tid ~op_index inv)
      invs
  in
  let setup () =
    events := [];
    let inst = adapter.create () in
    instance := Some inst;
    List.iter (fun inv -> ignore (inst.invoke inv)) test.init;
    Array.mapi (fun tid invs -> column_body inst tid invs) test.columns
  in
  let on_execution (outcome : Explore.exec_outcome) =
    (* Run the final observer sequence only when the test itself completed. *)
    let final_blocked = ref false in
    (match outcome.exec_end, test.final with
     | Explore.All_finished, _ :: _ ->
       let inst = Option.get !instance in
       let tid = observer_tid test in
       Exec_ctx.set_current_tid tid;
       (try
          Rt.run_inline (fun () ->
              List.iteri (fun op_index inv -> run_op inst ~tid ~op_index inv) test.final)
        with Failure _ -> final_blocked := true)
     | (Explore.All_finished | Explore.Deadlock _ | Explore.Serial_stuck _ | Explore.Diverged), _
       -> ());
    let stuck =
      (match outcome.exec_end with
       | Explore.All_finished -> false
       | Explore.Deadlock _ | Explore.Serial_stuck _ | Explore.Diverged -> true)
      || !final_blocked
    in
    let history = History.make ~stuck (List.rev !events) in
    on_history { history; outcome; log = Exec_ctx.current_log () }
  in
  setup, on_execution

(* [?log]: scope the access-logging flag around the exploration (set iff
   some attached analyzer needs the log, restored exception-safely by
   [Exec_ctx.with_logging]); absent, the flag is left untouched. *)
let scoped_log log body =
  match log with None -> body () | Some enabled -> Exec_ctx.with_logging enabled body

let run_phase ?log cfg ~adapter ~test ~on_history =
  let setup, on_execution = callbacks ~adapter ~test ~on_history in
  scoped_log log (fun () -> Explore.explore cfg ~setup ~on_execution ())

let split_phase cfg ~depth ~adapter ~test ~on_history =
  let setup, on_execution = callbacks ~adapter ~test ~on_history in
  Explore.split cfg ~depth ~setup ~on_execution

let run_phase_from ?log cfg ~prefix ~adapter ~test ~on_history =
  let setup, on_execution = callbacks ~adapter ~test ~on_history in
  scoped_log log (fun () -> Explore.explore_from cfg ~prefix ~setup ~on_execution ())

let run_phase_random ?log cfg ~rng ~executions ~adapter ~test ~on_history =
  let setup, on_execution = callbacks ~adapter ~test ~on_history in
  scoped_log log (fun () -> Explore.random_walk cfg ~rng ~executions ~setup ~on_execution)
