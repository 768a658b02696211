module Value = Lineup_value.Value
module History = Lineup_history.History
module Event = Lineup_history.Event
module Op = Lineup_history.Op
module Invocation = Lineup_history.Invocation

(* P-compositional splitting (Horn & Kroening, "Faster linearizability
   checking via P-compositionality"): when every operation of a history
   touches exactly the key named by its integer argument and the
   specification state is a product of independent per-key components —
   the set and dictionary classes here — Herlihy & Wing locality applies
   with each key read as its own object: the history is linearizable iff
   each per-key projection is. Each projection is checked with a fresh memo
   table, so the bitmask and the memoized state space shrink from the whole
   history to one key's handful of operations; histories beyond
   [Lin_check]'s 62-operation limit become checkable whenever every part
   fits. *)

let key_of_op (op : Op.t) =
  match op.inv.Invocation.arg with Value.Int k -> Some k | _ -> None

(* A projection (or, in the streaming monitor, a chunk) drops operations,
   so per-thread [op_index] values are no longer contiguous; renumber them
   (keeping call/return paired via the original index) to satisfy
   [History.make] well-formedness. Event order — hence precedence — is
   untouched. *)
let renumber evs =
  let next : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let assigned : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  List.map
    (fun (ev : Event.t) ->
      let id = ev.Event.tid, ev.Event.op_index in
      let idx =
        match Hashtbl.find_opt assigned id with
        | Some i -> i
        | None ->
          let i = Option.value ~default:0 (Hashtbl.find_opt next ev.Event.tid) in
          Hashtbl.replace next ev.Event.tid (i + 1);
          Hashtbl.replace assigned id i;
          i
      in
      { ev with Event.op_index = idx })
    evs

let split h =
  let ops = History.ops h in
  let key_by_id : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let exception Unkeyed in
  match
    List.iter
      (fun (op : Op.t) ->
        match key_of_op op with
        | Some k -> Hashtbl.add key_by_id (Op.key op) k
        | None -> raise Unkeyed)
      ops
  with
  | exception Unkeyed -> None
  | () ->
    let buckets : (int, Event.t list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (ev : Event.t) ->
        let k = Hashtbl.find key_by_id (ev.Event.tid, ev.Event.op_index) in
        let evs = Option.value ~default:[] (Hashtbl.find_opt buckets k) in
        Hashtbl.replace buckets k (ev :: evs))
      (History.events h);
    let keys = List.sort_uniq Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) buckets []) in
    Some
      (List.map
         (fun k -> k, History.make ~stuck:false (renumber (List.rev (Hashtbl.find buckets k))))
         keys)

let check spec h =
  match split h with
  | None -> Spec.Unsupported "operation without an integer key"
  | Some parts ->
    let rec go = function
      | [] -> Spec.Accept
      | (_k, part) :: rest -> (
        match Lin_check.decide spec part with
        | Spec.Accept -> go rest
        | (Spec.Reject | Spec.Unsupported _) as v -> v)
    in
    go parts
