module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Mutex_ = Lineup_runtime.Mutex_
module Condvar = Lineup_runtime.Condvar
open Util

let universe =
  [ inv "Release"; inv "Wait"; inv "TryWait"; inv "CurrentCount"; inv_int "ReleaseMany" 2 ]

let make_adapter ~buggy_release name =
  let create () =
    let count = Var.make ~volatile:true ~name:"sem.count" 0 in
    let lock = Mutex_.create ~name:"sem.lock" () in
    let cond = Condvar.create ~name:"sem.cond" () in
    let release n =
      if buggy_release then begin
        (* BUG (root cause C): unsynchronized read-modify-write *)
        let prev = Var.read count in
        Var.write count (prev + n);
        Mutex_.with_lock lock (fun () -> Condvar.pulse_all ~m:lock cond);
        prev
      end
      else
        Mutex_.with_lock lock (fun () ->
            let prev = Var.read count in
            Var.write count (prev + n);
            Condvar.pulse_all ~m:lock cond;
            prev)
    in
    let wait () =
      Mutex_.acquire lock;
      while Var.read count = 0 do
        Condvar.wait cond lock
      done;
      Var.write count (Var.read count - 1);
      Mutex_.release lock
    in
    let try_wait () =
      Mutex_.with_lock lock (fun () ->
          let c = Var.read count in
          if c > 0 then begin
            Var.write count (c - 1);
            true
          end
          else false)
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Release", Value.Unit -> Value.int (release 1)
      | "ReleaseMany", Value.Int n -> Value.int (release n)
      | "Wait", Value.Unit ->
        wait ();
        Value.unit
      | "TryWait", Value.Unit -> Value.bool (try_wait ())
      | "CurrentCount", Value.Unit -> Value.int (Var.read count)
      | _ -> unexpected "SemaphoreSlim" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name ~universe create

let correct = make_adapter ~buggy_release:false "SemaphoreSlim"
let pre = make_adapter ~buggy_release:true "SemaphoreSlim (Pre: unlocked release)"
