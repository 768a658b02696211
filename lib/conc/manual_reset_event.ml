module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Mutex_ = Lineup_runtime.Mutex_
module Condvar = Lineup_runtime.Condvar
module Rt = Lineup_runtime.Rt
open Util

(* Combined state word: bit 0 = signaled, upper bits = waiter count. *)
let signaled st = st land 1 = 1
let waiters st = st asr 1

let universe = [ inv "Set"; inv "Wait"; inv "Reset"; inv "IsSet"; inv "TryWait" ]

type variant =
  | Correct
  | Lost_signal  (** Set gives up after one failed CAS *)
  | Cas_typo  (** Wait computes the new state word from a re-read *)

let make_adapter variant name =
  let create () =
    let state = Var.make ~volatile:true ~name:"mre.state" 0 in
    let lock = Mutex_.create ~name:"mre.lock" () in
    let cond = Condvar.create ~name:"mre.cond" () in
    let rec update f =
      let local = Var.read state in
      if not (Var.cas state local (f local)) then update f
    in
    let rec wait () =
      let local = Var.read state in
      if signaled local then ()
      else begin
        (* register as a waiter *)
        let newstate =
          match variant with
          | Cas_typo ->
            (* BUG (paper §5.2.1): the shared variable is read a second
               time when computing the new value *)
            Var.read state + 2
          | Correct | Lost_signal -> local + 2
        in
        if Var.cas state local newstate then begin
          Mutex_.acquire lock;
          while not (signaled (Var.read state)) do
            Condvar.wait cond lock
          done;
          Mutex_.release lock;
          (* deregister *)
          update (fun st -> st - 2)
        end
        else wait ()
      end
    in
    let set () =
      match variant with
      | Lost_signal ->
        (* BUG: no retry loop — a concurrent waiter registration makes the
           CAS fail and the signal is silently dropped *)
        let local = Var.read state in
        if Var.cas state local (local lor 1) && waiters local > 0 then
          Mutex_.with_lock lock (fun () -> Condvar.pulse_all ~m:lock cond)
      | Correct | Cas_typo ->
        update (fun st -> st lor 1);
        if waiters (Var.read state) > 0 then
          Mutex_.with_lock lock (fun () -> Condvar.pulse_all ~m:lock cond)
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Set", Value.Unit ->
        set ();
        Value.unit
      | "Reset", Value.Unit ->
        update (fun st -> st land lnot 1);
        Value.unit
      | "Wait", Value.Unit ->
        wait ();
        Value.unit
      | "TryWait", Value.Unit -> Value.bool (signaled (Var.read state))
      | "IsSet", Value.Unit -> Value.bool (signaled (Var.read state))
      | _ -> unexpected "ManualResetEvent" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name ~universe create

let correct = make_adapter Correct "ManualResetEvent"
let lost_signal = make_adapter Lost_signal "ManualResetEvent (Pre: lost signal)"
let cas_typo = make_adapter Cas_typo "ManualResetEvent (Pre: CAS typo)"
