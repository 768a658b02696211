(* Operations are numbered densely in thread-key order: threads by ascending
   id, each thread's operations in its own order. A history and a serial
   history with equal thread keys number every operation alike, so
   condition 3 compares plain ints. [first_slots tids] is, per thread id, the
   slot of its first operation, given the thread of every operation. *)
let first_slots tids =
  let width = List.fold_left (fun m t -> Int.max m (t + 1)) 0 tids in
  let counts = Array.make width 0 in
  List.iter (fun t -> counts.(t) <- counts.(t) + 1) tids;
  let first = Array.make width 0 in
  for t = 1 to width - 1 do
    first.(t) <- first.(t - 1) + counts.(t - 1)
  done;
  first

type positions = int array

(* Slot -> position in the linear order. A stuck pending call sits after all
   entries. *)
let positions (serial : Serial_history.t) =
  let tids =
    List.map (fun (e : Serial_history.entry) -> e.tid) serial.entries
    @ Option.to_list (Option.map fst serial.stuck)
  in
  let next = first_slots tids in
  let pos = Array.make (List.length tids) 0 in
  List.iteri
    (fun i t ->
      pos.(next.(t)) <- i;
      next.(t) <- next.(t) + 1)
    tids;
  pos

type prepared = int array

(* One code per event: the operation's slot, shifted left, with the low bit
   set on a return. *)
let prepare h =
  let events = History.events h in
  let first =
    first_slots
      (List.filter_map (fun (e : Event.t) -> if Event.is_call e then Some e.tid else None) events)
  in
  Array.of_list
    (List.map
       (fun (e : Event.t) ->
         ((first.(e.tid) + e.op_index) lsl 1) lor (if Event.is_return e then 1 else 0))
       events)

(* Condition 3, <H ⊆ <S, in one sweep over H: every operation must sit, in
   S, after all operations that returned before its call. *)
let preserves_order (pos : positions) (events : prepared) =
  let n = Array.length events in
  let rec go i latest_returned =
    i = n
    ||
    let code = events.(i) in
    let p = pos.(code lsr 1) in
    if code land 1 = 1 then go (i + 1) (Int.max latest_returned p)
    else p > latest_returned && go (i + 1) latest_returned
  in
  go 0 (-1)
