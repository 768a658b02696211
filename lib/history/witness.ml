module Value = Lineup_value.Value

(* Operations are numbered densely: the complete ones in thread-key order
   (threads by ascending id, each thread's operations in its own order),
   then the pending ones. A history and a serial history with equal keys
   number every operation alike, so condition 3 compares plain ints. Thread
   ids are the test's: small and non-negative. *)

type key = {
  ops : Serial_history.entry array;  (* complete operations, in thread-key order *)
  pending : (int * Invocation.t) list;  (* pending calls, by ascending thread *)
}

let rec ops_equal a b i =
  i < 0
  ||
  let (x : Serial_history.entry) = a.(i) and (y : Serial_history.entry) = b.(i) in
  x.tid = y.tid && Invocation.equal x.inv y.inv && Value.equal x.resp y.resp
  && ops_equal a b (i - 1)

let key_equal k1 k2 =
  Array.length k1.ops = Array.length k2.ops
  && ops_equal k1.ops k2.ops (Array.length k1.ops - 1)
  && List.equal (fun (t1, i1) (t2, i2) -> t1 = t2 && Invocation.equal i1 i2) k1.pending k2.pending

(* The hash leaves the invocations out: one test fixes them by thread and
   position, so they would not tell its keys apart. *)
let rec hash_ops ops i h =
  if i = Array.length ops then h
  else
    let (e : Serial_history.entry) = ops.(i) in
    hash_ops ops (i + 1) ((((h * 31) + e.tid) * 31) + Value.hash e.resp)

let rec hash_pending h = function
  | [] -> h
  | (tid, _) :: rest -> hash_pending ((h * 31) + tid) rest

let key_hash k = hash_pending (hash_ops k.ops 0 0) k.pending

(* [counts.(t)], the number of thread [t]'s complete operations, becomes
   the slot of its first one; the result is the total. *)
let rec first_slots counts t acc =
  if t = Array.length counts then acc
  else begin
    let c = counts.(t) in
    counts.(t) <- acc;
    first_slots counts (t + 1) (acc + c)
  end

type positions = int array

(* One more than the largest thread id of [l]. *)
let width tid_of l = List.fold_left (fun w x -> Int.max w (tid_of x + 1)) 0 l

(* The key, and each slot's position in [s]'s linear order. *)
let index (s : Serial_history.t) =
  let next = Array.make (width (fun (e : Serial_history.entry) -> e.tid) s.entries) 0 in
  List.iter (fun (e : Serial_history.entry) -> next.(e.tid) <- next.(e.tid) + 1) s.entries;
  let n = first_slots next 0 0 in
  let ops = match s.entries with [] -> [||] | e :: _ -> Array.make n e in
  (* a stuck pending call, slot [n], sits after every entry *)
  let pos = Array.make (if Option.is_some s.stuck then n + 1 else n) n in
  List.iteri
    (fun i (e : Serial_history.entry) ->
      let slot = next.(e.tid) in
      next.(e.tid) <- slot + 1;
      ops.(slot) <- e;
      pos.(slot) <- i)
    s.entries;
  { ops; pending = Option.to_list s.stuck }, pos

type prepared = int array

let no_inv = Invocation.make ""
let hole = { Serial_history.tid = -1; inv = no_inv; resp = Value.Unit }
let by_tid (t1, _) (t2, _) = Int.compare t1 t2

(* One code per event: the operation's slot, shifted left, with the low bit
   set on a return. A thread's complete operations are its first ones, so
   a call is complete exactly when its index is below the thread's count
   of returns. *)
let prepare h =
  let events = History.events h in
  let first = Array.make (width (fun (e : Event.t) -> e.tid) events) 0 in
  List.iter
    (fun (e : Event.t) -> if Event.is_return e then first.(e.tid) <- first.(e.tid) + 1)
    events;
  let complete = first_slots first 0 0 in
  let ends tid = if tid + 1 < Array.length first then first.(tid + 1) else complete in
  let ops = Array.make complete hole in
  let invs = Array.make complete no_inv in
  let codes = Array.make (List.length events) 0 in
  let pending = ref [] in
  List.iteri
    (fun i (e : Event.t) ->
      let slot = first.(e.tid) + e.op_index in
      match e.dir with
      | Event.Return resp ->
        ops.(slot) <- { tid = e.tid; inv = invs.(slot); resp };
        codes.(i) <- (slot lsl 1) lor 1
      | Event.Call inv when slot < ends e.tid ->
        invs.(slot) <- inv;
        codes.(i) <- slot lsl 1
      | Event.Call inv ->
        codes.(i) <- (complete + List.length !pending) lsl 1;
        pending := (e.tid, inv) :: !pending)
    events;
  { ops; pending = List.sort by_tid !pending }, codes

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
