module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Mutex_ = Lineup_runtime.Mutex_
open Util

let universe =
  [
    inv_int "Enqueue" 200;
    inv_int "Enqueue" 400;
    inv "TryDequeue";
    inv "TryPeek";
    inv "Count";
    inv "IsEmpty";
    inv "ToArray";
  ]

let make_adapter ~timed_dequeue name =
  let create () =
    let lock = Mutex_.create ~name:"queue.lock" () in
    let items = Var.make ~name:"queue.items" [] in
    let try_dequeue () =
      let acquired = if timed_dequeue then Mutex_.try_acquire_timed lock else (Mutex_.acquire lock; true) in
      if not acquired then
        (* BUG (root cause B, Fig. 1): a timed-out acquire is reported as an
           empty queue *)
        Value.Fail
      else begin
        let r =
          match Var.read items with
          | [] -> Value.Fail
          | x :: rest ->
            Var.write items rest;
            Value.int x
        in
        Mutex_.release lock;
        r
      end
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Enqueue", Value.Int x ->
        Mutex_.with_lock lock (fun () ->
            Var.write items (Var.read items @ [ x ]);
            Value.unit)
      | "TryDequeue", Value.Unit -> try_dequeue ()
      | "TryPeek", Value.Unit ->
        Mutex_.with_lock lock (fun () ->
            match Var.read items with [] -> Value.Fail | x :: _ -> Value.int x)
      | "Count", Value.Unit ->
        Mutex_.with_lock lock (fun () -> Value.int (List.length (Var.read items)))
      | "IsEmpty", Value.Unit ->
        (* Deliberately lock-free: a single read is atomic, so this is
           linearizable — but it races with the locked writers. This is the
           paper's "benign race" pattern (§5.6): the .NET code contained
           such reads because C# cannot declare certain volatiles. *)
        Value.bool (Var.read items = [])
      | "ToArray", Value.Unit ->
        Mutex_.with_lock lock (fun () -> Value.list (List.map Value.int (Var.read items)))
      | _ -> unexpected "ConcurrentQueue" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name ~universe create

let correct = make_adapter ~timed_dequeue:false "ConcurrentQueue"
let pre = make_adapter ~timed_dequeue:true "ConcurrentQueue (Pre: timed lock in TryDequeue)"
