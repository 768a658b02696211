module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Var_array = Lineup_runtime.Var_array
module Mutex_ = Lineup_runtime.Mutex_
open Util

let stripes = 2

let universe =
  List.concat_map
    (fun k ->
      [
        inv_int "TryAdd" k;
        inv_int "TryRemove" k;
        inv_int "TryGet" k;
        inv_int "Get" k;
        inv_int "Set" k;
        inv_int "TryUpdate" k;
        inv_int "ContainsKey" k;
      ])
    [ 10; 20 ]
  @ [ inv "Count"; inv "IsEmpty"; inv "Clear" ]

let make_adapter ~atomic_clear name =
  let create () =
    let buckets = Var_array.make ~name:"dict.bucket" stripes [] in
    let locks =
      Array.init stripes (fun i -> Mutex_.create ~name:(Loc_name.indexed "dict.lock" i) ())
    in
    (* keys 10 and 20 land in different stripes *)
    let stripe k = k / 10 mod stripes in
    let with_stripe k f =
      Mutex_.with_lock locks.(stripe k) (fun () ->
          let b = Var_array.cell buckets (stripe k) in
          f b)
    in
    let with_all f =
      Array.iter Mutex_.acquire locks;
      let r = f () in
      Array.iter Mutex_.release locks;
      r
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "TryAdd", Value.Int k ->
        with_stripe k (fun b ->
            let l = Var.read b in
            if List.mem_assoc k l then Value.bool false
            else begin
              Var.write b ((k, k * 100) :: l);
              Value.bool true
            end)
      | "TryRemove", Value.Int k ->
        with_stripe k (fun b ->
            let l = Var.read b in
            if List.mem_assoc k l then begin
              Var.write b (List.remove_assoc k l);
              Value.bool true
            end
            else Value.bool false)
      | "TryGet", Value.Int k | "Get", Value.Int k ->
        with_stripe k (fun b ->
            match List.assoc_opt k (Var.read b) with
            | Some v -> Value.int v
            | None -> Value.Fail)
      | "Set", Value.Int k ->
        with_stripe k (fun b ->
            Var.write b (((k, (k * 100) + 1)) :: List.remove_assoc k (Var.read b));
            Value.unit)
      | "TryUpdate", Value.Int k ->
        with_stripe k (fun b ->
            let l = Var.read b in
            match List.assoc_opt k l with
            | Some v ->
              Var.write b ((k, v + 1) :: List.remove_assoc k l);
              Value.bool true
            | None -> Value.bool false)
      | "ContainsKey", Value.Int k ->
        with_stripe k (fun b -> Value.bool (List.mem_assoc k (Var.read b)))
      | "Count", Value.Unit ->
        with_all (fun () ->
            let n = ref 0 in
            for s = 0 to stripes - 1 do
              n := !n + List.length (Var_array.read buckets s)
            done;
            Value.int !n)
      | "IsEmpty", Value.Unit ->
        with_all (fun () ->
            (* short-circuits like Array.for_all did: same read sequence *)
            let rec empty s = s >= stripes || (Var_array.read buckets s = [] && empty (s + 1)) in
            Value.bool (empty 0))
      | "Clear", Value.Unit ->
        if atomic_clear then
          with_all (fun () ->
              for s = 0 to stripes - 1 do
                Var_array.write buckets s []
              done;
              Value.unit)
        else begin
          (* BUG (root cause O): stripes cleared one lock at a time — a
             concurrent TryAdd to an already-cleared stripe survives the
             Clear, so Count can be nonzero right after Clear returned with
             no intervening Add *)
          for s = 0 to stripes - 1 do
            Mutex_.with_lock locks.(s) (fun () -> Var_array.write buckets s [])
          done;
          Value.unit
        end
      | _ -> unexpected "ConcurrentDictionary" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name ~universe create

let adapter = make_adapter ~atomic_clear:true "ConcurrentDictionary"
let pre = make_adapter ~atomic_clear:false "ConcurrentDictionary (Pre: non-atomic Clear)"
