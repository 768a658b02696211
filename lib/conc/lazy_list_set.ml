module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Mutex_ = Lineup_runtime.Mutex_
open Util

type node = {
  key : int;  (* min_int = head sentinel, max_int = tail sentinel *)
  marked : bool Var.t;
  next : node option Var.t;
  lock : Mutex_.t;
}

(* A node's three location names. Nodes are rebuilt every execution, so
   the sentinels' names are built once here. *)
let node_names key =
  let node = "node" ^ Loc_name.digits key in
  node ^ ".marked", node ^ ".next", node ^ ".lock"

let head_names = node_names min_int
let tail_names = node_names max_int

let new_node key next =
  let marked, next_name, lock =
    if key = min_int then head_names else if key = max_int then tail_names else node_names key
  in
  {
    key;
    marked = Var.make ~volatile:true ~name:marked false;
    next = Var.make ~volatile:true ~name:next_name next;
    lock = Mutex_.create ~name:lock ();
  }

let universe =
  [
    inv_int "Add" 10;
    inv_int "Add" 15;
    inv_int "Remove" 10;
    inv_int "Remove" 15;
    inv_int "Contains" 10;
    inv_int "Contains" 15;
  ]

let make_adapter ~mark_on_remove name =
  let create () =
    let tail = new_node max_int None in
    let head = new_node min_int (Some tail) in
    (* walk to the first node with key >= k; returns (pred, curr) *)
    let locate k =
      let rec go pred =
        match Var.read pred.next with
        | None -> assert false (* the tail sentinel is never passed *)
        | Some curr -> if curr.key < k then go curr else pred, curr
      in
      go head
    in
    let validate pred curr =
      (not (Var.read pred.marked))
      && (not (Var.read curr.marked))
      && (match Var.read pred.next with Some n -> n == curr | None -> false)
    in
    let rec with_locked_pair k f =
      let pred, curr = locate k in
      Mutex_.acquire pred.lock;
      Mutex_.acquire curr.lock;
      if validate pred curr then begin
        let r = f pred curr in
        Mutex_.release curr.lock;
        Mutex_.release pred.lock;
        r
      end
      else begin
        Mutex_.release curr.lock;
        Mutex_.release pred.lock;
        with_locked_pair k f
      end
    in
    let add k =
      with_locked_pair k (fun pred curr ->
          if curr.key = k then false
          else begin
            let node = new_node k (Some curr) in
            Var.write pred.next (Some node);
            true
          end)
    in
    let remove k =
      with_locked_pair k (fun pred curr ->
          if curr.key <> k then false
          else begin
            (* The published algorithm marks before unlinking; the Pre
               variant forgets (the classic lazy-list defect). *)
            if mark_on_remove then Var.write curr.marked true;
            Var.write pred.next (Var.read curr.next);
            true
          end)
    in
    (* wait-free: no locks, relies on marking for correctness *)
    let contains k =
      let rec go node =
        if node.key < k then
          match Var.read node.next with Some n -> go n | None -> false
        else node.key = k && not (Var.read node.marked)
      in
      go head
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Add", Value.Int k -> Value.bool (add k)
      | "Remove", Value.Int k -> Value.bool (remove k)
      | "Contains", Value.Int k -> Value.bool (contains k)
      | _ -> unexpected "LazyListSet" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name ~universe create

let correct = make_adapter ~mark_on_remove:true "LazyListSet"
let pre = make_adapter ~mark_on_remove:false "LazyListSet (Pre: remove without marking)"
