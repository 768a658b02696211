module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Var_array = Lineup_runtime.Var_array
module Mutex_ = Lineup_runtime.Mutex_
module Rt = Lineup_runtime.Rt
open Util

let universe =
  [
    inv_int "Add" 200;
    inv_int "Add" 400;
    inv "Take";
    inv "TryAdd";
    inv "TryTake";
    inv "Count";
    inv "ToArray";
    inv "CompleteAdding";
    inv "IsCompleted";
    inv "IsAddingCompleted";
  ]

(* ------------------------------------------------------------------ *)
(* Single-lock FIFO variant (optionally bounded)                       *)
(* ------------------------------------------------------------------ *)

let make_fifo ?bound name =
  let create () =
    let lock = Mutex_.create ~name:"bc.lock" () in
    let items = Var.make ~name:"bc.items" [] in
    let completed = Var.make ~volatile:true ~name:"bc.completed" false in
    let room () =
      match bound with
      | None -> true
      | Some b -> List.length (Var.peek items) < b
    in
    let rec add ~try_ x =
      Mutex_.acquire lock;
      if Var.read completed then begin
        Mutex_.release lock;
        Value.Fail
      end
      else if
        match bound with None -> true | Some b -> List.length (Var.read items) < b
      then begin
        Var.write items (Var.read items @ [ x ]);
        Mutex_.release lock;
        Value.unit
      end
      else if try_ then begin
        (* TryAdd on a full bounded collection fails immediately *)
        Mutex_.release lock;
        Value.Fail
      end
      else begin
        (* bounded Add blocks until space frees up or adding completes *)
        Mutex_.release lock;
        Rt.block ~wake:(fun () -> room () || Var.peek completed) "space available";
        add ~try_ x
      end
    in
    let try_take () =
      Mutex_.with_lock lock (fun () ->
          match Var.read items with
          | [] -> Value.Fail
          | x :: rest ->
            Var.write items rest;
            Value.int x)
    in
    let rec take () =
      Mutex_.acquire lock;
      match Var.read items with
      | x :: rest ->
        Var.write items rest;
        Mutex_.release lock;
        Value.int x
      | [] ->
        if Var.read completed then begin
          Mutex_.release lock;
          Value.Fail (* models the InvalidOperationException on a completed collection *)
        end
        else begin
          Mutex_.release lock;
          Rt.block
            ~wake:(fun () -> Var.peek items <> [] || Var.peek completed)
            "item available or adding completed";
          take ()
        end
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Add", Value.Int x -> add ~try_:false x
      | "TryAdd", Value.Unit -> add ~try_:true 99
      | "Take", Value.Unit -> take ()
      | "TryTake", Value.Unit -> try_take ()
      | "Count", Value.Unit ->
        Mutex_.with_lock lock (fun () -> Value.int (List.length (Var.read items)))
      | "ToArray", Value.Unit ->
        Mutex_.with_lock lock (fun () -> Value.list (List.map Value.int (Var.read items)))
      | "CompleteAdding", Value.Unit ->
        Mutex_.with_lock lock (fun () ->
            Var.write completed true;
            Value.unit)
      | "IsAddingCompleted", Value.Unit -> Value.bool (Var.read completed)
      | "IsCompleted", Value.Unit ->
        Mutex_.with_lock lock (fun () ->
            Value.bool (Var.read completed && Var.read items = []))
      | _ -> unexpected "BlockingCollection" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name ~universe create

let fifo = make_fifo "BlockingCollection (FIFO)"
let fifo_bounded = make_fifo ~bound:1 "BlockingCollection (FIFO, bound 1)"

(* ------------------------------------------------------------------ *)
(* Segmented variant with skip-on-busy scans (root causes I and J)     *)
(* ------------------------------------------------------------------ *)

let max_threads = 4

let segmented =
  let create () =
    let segments = Var_array.make ~name:"bcs.seg" max_threads [] in
    let locks =
      Array.init max_threads (fun i -> Mutex_.create ~name:(Loc_name.indexed "bcs.lock" i) ())
    in
    let completed = Var.make ~volatile:true ~name:"bcs.completed" false in
    let own () = Rt.self () mod max_threads in
    let add x =
      if Var.read completed then Value.Fail
      else begin
        let me = own () in
        Mutex_.with_lock locks.(me) (fun () ->
            Var_array.write segments me (Var_array.read segments me @ [ x ]));
        Value.unit
      end
    in
    (* TryTake: skip segments whose lock is busy (root cause J). *)
    let rec try_scan = function
      | [] -> Value.Fail
      | j :: rest ->
        if Mutex_.try_acquire locks.(j) then begin
          let r =
            match Var_array.read segments j with
            | [] -> None
            | x :: tail ->
              Var_array.write segments j tail;
              Some (Value.int x)
          in
          Mutex_.release locks.(j);
          match r with Some v -> v | None -> try_scan rest
        end
        else try_scan rest
    in
    (* Take: full acquisition, re-check loop — never misses. *)
    let rec take () =
      let found = ref None in
      let j = ref 0 in
      while Option.is_none !found && !j < max_threads do
        Mutex_.acquire locks.(!j);
        (match Var_array.read segments !j with
         | x :: tail ->
           Var_array.write segments !j tail;
           found := Some x
         | [] -> ());
        Mutex_.release locks.(!j);
        incr j
      done;
      match !found with
      | Some x -> Value.int x
      | None ->
        if Var.read completed then Value.Fail
        else begin
          Rt.block
            ~wake:(fun () ->
              let rec nonempty j =
                j < max_threads && (Var_array.peek segments j <> [] || nonempty (j + 1))
              in
              Var.peek completed || nonempty 0)
            "item available or adding completed";
          take ()
        end
    in
    (* Count: per-segment locks taken one at a time, busy segments skipped
       (root cause I). *)
    let count () =
      let total = ref 0 in
      for j = 0 to max_threads - 1 do
        if Mutex_.try_acquire locks.(j) then begin
          total := !total + List.length (Var_array.read segments j);
          Mutex_.release locks.(j)
        end
      done;
      !total
    in
    let with_all f =
      Array.iter Mutex_.acquire locks;
      let r = f () in
      Array.iter Mutex_.release locks;
      r
    in
    let scan_order () =
      let me = own () in
      me :: List.filter (fun j -> j <> me) (List.init max_threads Fun.id)
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Add", Value.Int x -> add x
      | "TryAdd", Value.Unit -> add 99
      | "Take", Value.Unit -> take ()
      | "TryTake", Value.Unit -> try_scan (scan_order ())
      | "Count", Value.Unit -> Value.int (count ())
      | "ToArray", Value.Unit ->
        with_all (fun () ->
            Value.list
              (List.concat_map
                 (fun j -> List.map Value.int (Var_array.read segments j))
                 (List.init max_threads Fun.id)))
      | "CompleteAdding", Value.Unit ->
        Var.write completed true;
        Value.unit
      | "IsAddingCompleted", Value.Unit -> Value.bool (Var.read completed)
      | "IsCompleted", Value.Unit ->
        with_all (fun () ->
            let rec empty j =
              j >= max_threads || (Var_array.read segments j = [] && empty (j + 1))
            in
            Value.bool (Var.read completed && empty 0))
      | _ -> unexpected "BlockingCollection" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name:"BlockingCollection (segmented)" ~universe create
