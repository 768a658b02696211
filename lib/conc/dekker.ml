(* The Dekker/Peterson store→load litmus as a checkable class.

   Two contenders guard a plain (non-atomic) counter with Peterson's
   two-thread mutual-exclusion protocol: raise my flag, yield the turn,
   then spin until the other flag is down or the turn is mine. The
   protocol's correctness hinges on the store→load ordering between
   "flag[me] := true" and the read of flag[other] — exactly the ordering
   TSO store buffers break — and, under PSO, additionally on the
   store→store ordering between "flag[me] := true" and "turn := other"
   (per-location buffers may flush the turn first, letting the other
   thread observe the turn handed over while the flag is still hidden).
   The [fenced] variant drains the buffers with [Rt.fence] after each
   store and is correct under sc, tso and pso; the fence-free variant is
   correct under sequential consistency (every SC interleaving preserves
   mutual exclusion, so no SC exploration can fail it) but loses updates
   under `--memory tso`/`pso`, where both threads read the other's
   still-buffered flag as false and enter the critical section
   together. *)

module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Var_array = Lineup_runtime.Var_array
module Rt = Lineup_runtime.Rt
open Util

let universe = [ inv "Inc"; inv "Get" ]

let make_adapter ~fenced name =
  let create () =
    let flag = Var_array.make ~volatile:true ~name:"dekker.flag" 2 false in
    let turn = Var.make ~volatile:true ~name:"dekker.turn" 0 in
    let count = Var.make ~name:"dekker.count" 0 in
    let enter me other =
      Var_array.write flag me true;
      (* PSO buffers per location: without a fence here the turn store
         below may flush first, publishing the handover while flag[me] is
         still hidden. *)
      if fenced then Rt.fence ();
      Var.write turn other;
      (* The load of flag[other] below must not overtake the store of
         flag[me] above. Volatile is not enough (stores still buffer); only
         a full fence orders a store before a later load on TSO. *)
      if fenced then Rt.fence ();
      while Var_array.read flag other && Var.read turn = other do
        Rt.yield ()
      done
    in
    let leave me =
      (* Release: the protected count store must be visible before the
         flag drops. PSO's per-location buffers would otherwise flush the
         flag first and let the next entrant read a stale count. *)
      if fenced then Rt.fence ();
      Var_array.write flag me false
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Inc", Value.Unit ->
        (* Two columns contend: column tids 0 and 1 map to distinct slots. *)
        let me = Rt.self () land 1 in
        let other = 1 - me in
        enter me other;
        (* the protected section: a non-atomic read-modify-write *)
        Var.write count (Var.read count + 1);
        leave me;
        Value.unit
      | "Get", Value.Unit -> Value.int (Var.read count)
      | _ -> unexpected "Dekker" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name ~universe create

let fenced = make_adapter ~fenced:true "DekkerCounter"
let fence_free = make_adapter ~fenced:false "DekkerCounter (Pre: missing store-load fence)"
