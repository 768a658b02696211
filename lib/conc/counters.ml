module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Mutex_ = Lineup_runtime.Mutex_
module Rt = Lineup_runtime.Rt
open Util

let universe = [ inv "Inc"; inv "Get"; inv_int "Set" 5; inv "Dec" ]

let correct =
  let create () =
    let lock = Mutex_.create ~name:"counter.lock" () in
    let count = Var.make ~name:"counter.count" 0 in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Inc", Value.Unit ->
        Mutex_.with_lock lock (fun () ->
            Var.write count (Var.read count + 1);
            Value.unit)
      | "Get", Value.Unit -> Mutex_.with_lock lock (fun () -> Value.int (Var.read count))
      | "Set", Value.Int x ->
        Mutex_.with_lock lock (fun () ->
            Var.write count x;
            Value.unit)
      | "Dec", Value.Unit ->
        (* semaphore-like: block while the count is zero *)
        let rec dec () =
          Mutex_.acquire lock;
          let c = Var.read count in
          if c > 0 then begin
            Var.write count (c - 1);
            Mutex_.release lock;
            Value.unit
          end
          else begin
            Mutex_.release lock;
            Rt.block ~wake:(fun () -> Var.peek count > 0) "count > 0";
            dec ()
          end
        in
        dec ()
      | _ -> unexpected "counter" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name:"Counter" ~universe create

(* Counter1 of §2.2.1: inc forgets the lock. *)
let buggy_unlocked =
  let create () =
    let lock = Mutex_.create ~name:"counter1.lock" () in
    let count = Var.make ~name:"counter1.count" 0 in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Inc", Value.Unit ->
        (* BUG: unsynchronized read-modify-write *)
        Var.write count (Var.read count + 1);
        Value.unit
      | "Get", Value.Unit -> Mutex_.with_lock lock (fun () -> Value.int (Var.read count))
      | "Set", Value.Int x ->
        Mutex_.with_lock lock (fun () ->
            Var.write count x;
            Value.unit)
      | _ -> unexpected "counter1" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name:"Counter1 (unlocked inc)"
    ~universe:[ inv "Inc"; inv "Get"; inv_int "Set" 5 ] create

(* Counter2 of §2.2.2: get never releases the lock. *)
let buggy_stuck =
  let create () =
    let lock = Mutex_.create ~name:"counter2.lock" () in
    let count = Var.make ~name:"counter2.count" 0 in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Inc", Value.Unit ->
        Mutex_.acquire lock;
        Var.write count (Var.read count + 1);
        Mutex_.release lock;
        Value.unit
      | "Get", Value.Unit ->
        Mutex_.acquire lock;
        (* BUG: missing release *)
        Value.int (Var.read count)
      | "Set", Value.Int x ->
        Mutex_.acquire lock;
        Var.write count x;
        Mutex_.release lock;
        Value.unit
      | _ -> unexpected "counter2" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name:"Counter2 (get keeps lock)"
    ~universe:[ inv "Inc"; inv "Get"; inv_int "Set" 5 ] create
