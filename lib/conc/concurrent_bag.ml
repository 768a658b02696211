module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var_array = Lineup_runtime.Var_array
module Mutex_ = Lineup_runtime.Mutex_
module Rt = Lineup_runtime.Rt
open Util

let max_threads = 4

let universe =
  [ inv_int "Add" 10; inv_int "Add" 20; inv "TryTake"; inv "TryPeek"; inv "Count"; inv "IsEmpty"; inv "ToArray" ]

let adapter =
  let create () =
    let segments = Var_array.make ~name:"bag.seg" max_threads [] in
    let locks =
      Array.init max_threads (fun i -> Mutex_.create ~name:(Loc_name.indexed "bag.lock" i) ())
    in
    let own () = Rt.self () mod max_threads in
    let scan_order () =
      let me = own () in
      me :: List.filter (fun j -> j <> me) (List.init max_threads Fun.id)
    in
    (* Non-blocking scan: a busy segment is skipped (the intentional
       nondeterminism of root cause H). *)
    let rec scan ~remove = function
      | [] -> Value.Fail
      | j :: rest ->
        if Mutex_.try_acquire locks.(j) then begin
          let r =
            match Var_array.read segments j with
            | [] -> None
            | x :: tail ->
              if remove then Var_array.write segments j tail;
              Some (Value.int x)
          in
          Mutex_.release locks.(j);
          match r with Some v -> v | None -> scan ~remove rest
        end
        else scan ~remove rest
    in
    let with_all_locks f =
      Array.iter Mutex_.acquire locks;
      let r = f () in
      Array.iter Mutex_.release locks;
      r
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Add", Value.Int x ->
        let me = own () in
        Mutex_.with_lock locks.(me) (fun () ->
            Var_array.write segments me (x :: Var_array.read segments me));
        Value.unit
      | "TryTake", Value.Unit -> scan ~remove:true (scan_order ())
      | "TryPeek", Value.Unit -> scan ~remove:false (scan_order ())
      | "Count", Value.Unit ->
        with_all_locks (fun () ->
            let n = ref 0 in
            for j = 0 to max_threads - 1 do
              n := !n + List.length (Var_array.read segments j)
            done;
            Value.int !n)
      | "IsEmpty", Value.Unit ->
        with_all_locks (fun () ->
            (* short-circuits like Array.for_all did: same read sequence *)
            let rec empty j =
              j >= max_threads || (Var_array.read segments j = [] && empty (j + 1))
            in
            Value.bool (empty 0))
      | "ToArray", Value.Unit ->
        with_all_locks (fun () ->
            Value.list
              (List.concat_map
                 (fun j -> List.map Value.int (Var_array.read segments j))
                 (List.init max_threads Fun.id)))
      | _ -> unexpected "ConcurrentBag" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name:"ConcurrentBag" ~universe create
