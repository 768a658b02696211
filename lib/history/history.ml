module Value = Lineup_value.Value

type t = {
  events : Event.t list;
  stuck : bool;
}

(* Well-formedness (Section 2.1.1): every thread subhistory is serial. We
   additionally require the [op_index] bookkeeping to be consistent: the i-th
   operation of thread t carries index i. A thread's state is one int, [2 i]
   while it expects its i-th call and [2 i + 1] while that operation is
   pending. [states] holds (tid, state) pairs, searched linearly: histories
   have few threads, and a tid may be any int. *)
let rec state_slot (states : int array) tid i n =
  if i >= n then -1
  else if states.(2 * i) = tid then (2 * i) + 1
  else state_slot states tid (i + 1) n

let fail fmt = Fmt.kstr invalid_arg ("History.make: " ^^ fmt)

(* Event [e] of a thread in state [states.(at)]. *)
let step states at (e : Event.t) =
  let state = states.(at) in
  let idx = state lsr 1 in
  (match e.dir with
   | Event.Call inv ->
     if state land 1 = 1 then
       fail "thread %d: call %a while an operation is pending" e.tid Invocation.pp inv;
     if e.op_index <> idx then
       fail "thread %d: call %a has op_index %d, expected %d" e.tid Invocation.pp inv e.op_index
         idx
   | Event.Return v ->
     if state land 1 = 0 then fail "thread %d: return %a without a pending call" e.tid Value.pp v;
     if e.op_index <> idx then
       fail "thread %d: return has op_index %d, expected %d" e.tid e.op_index idx);
  states.(at) <- state + 1

let rec check_well_formed states threads = function
  | [] -> ()
  | (e : Event.t) :: rest -> (
    match state_slot states e.tid 0 threads with
    | -1 ->
      let states =
        if 2 * threads < Array.length states then states
        else Array.append states (Array.make (2 * threads) 0)
      in
      states.(2 * threads) <- e.tid;
      states.((2 * threads) + 1) <- 0;
      step states ((2 * threads) + 1) e;
      check_well_formed states (threads + 1) rest
    | at ->
      step states at e;
      check_well_formed states threads rest)

let make ?(stuck = false) events =
  check_well_formed (Array.make 8 0) 0 events;
  { events; stuck }

let events h = h.events
let is_stuck h = h.stuck
let length h = List.length h.events

let threads h =
  List.sort_uniq Int.compare (List.map (fun (e : Event.t) -> e.tid) h.events)

let thread_sub h t = List.filter (fun (e : Event.t) -> e.tid = t) h.events

let ops h =
  (* Pair each call with its matching return by (tid, op_index). *)
  let returns : (int * int, Value.t * int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun pos (e : Event.t) ->
      match e.dir with
      | Event.Return v -> Hashtbl.replace returns (e.tid, e.op_index) (v, pos)
      | Event.Call _ -> ())
    h.events;
  List.concat
    (List.mapi
       (fun pos (e : Event.t) ->
         match e.dir with
         | Event.Call inv ->
           let resp, ret_pos =
             match Hashtbl.find_opt returns (e.tid, e.op_index) with
             | Some (v, rp) -> Some v, Some rp
             | None -> None, None
           in
           [ { Op.tid = e.tid; op_index = e.op_index; inv; resp; call_pos = pos; ret_pos } ]
         | Event.Return _ -> [])
       h.events)

let thread_key h =
  (* Calls open an entry, returns complete the thread's open one: thread
     subhistories are serial, so the open entry is always the head. *)
  let tbl : (int, (Invocation.t * Value.t option) list) Hashtbl.t = Hashtbl.create 7 in
  List.iter
    (fun (e : Event.t) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt tbl e.tid) in
      match e.dir, l with
      | Event.Call inv, _ -> Hashtbl.replace tbl e.tid ((inv, None) :: l)
      | Event.Return v, (inv, None) :: rest -> Hashtbl.replace tbl e.tid ((inv, Some v) :: rest)
      | Event.Return _, ([] | (_, Some _) :: _) -> assert false (* well-formedness *))
    h.events;
  Hashtbl.fold (fun tid l acc -> (tid, List.rev l) :: acc) tbl []
  |> List.sort (fun (t1, _) (t2, _) -> Int.compare t1 t2)

let pending_ops h = List.filter Op.is_pending (ops h)
let complete_ops h = List.filter Op.is_complete (ops h)
let is_complete h = match pending_ops h with [] -> true | _ :: _ -> false

let drop_pending_calls events =
  let has_return : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      if Event.is_return e then Hashtbl.replace has_return (e.tid, e.op_index) ())
    events;
  List.filter
    (fun (e : Event.t) ->
      Event.is_return e || Hashtbl.mem has_return (e.tid, e.op_index))
    events

let complete h = { events = drop_pending_calls h.events; stuck = false }

let is_serial h =
  let rec go expecting events =
    match expecting, events with
    | None, [] -> true
    | Some _, [] -> h.stuck (* a stuck serial history may end with a pending call *)
    | None, ({ Event.dir = Event.Call _; _ } as e) :: rest -> go (Some e) rest
    | None, { Event.dir = Event.Return _; _ } :: _ -> false
    | Some _, { Event.dir = Event.Call _; _ } :: _ -> false
    | Some (c : Event.t), ({ Event.dir = Event.Return _; _ } as r) :: rest ->
      if r.Event.tid = c.Event.tid && r.Event.op_index = c.Event.op_index then go None rest
      else false
  in
  go None h.events

let restrict_to_pending h (e : Op.t) =
  if not h.stuck then invalid_arg "History.restrict_to_pending: history is not stuck";
  if Op.is_complete e then invalid_arg "History.restrict_to_pending: operation is complete";
  let keep (ev : Event.t) =
    Event.is_return ev
    || (ev.tid = e.tid && ev.op_index = e.op_index)
    ||
    (* a call is kept when its return is present *)
    List.exists
      (fun (r : Event.t) ->
        Event.is_return r && r.tid = ev.tid && r.op_index = ev.op_index)
      h.events
  in
  let found =
    List.exists
      (fun (ev : Event.t) ->
        Event.is_call ev && ev.tid = e.tid && ev.op_index = e.op_index
        && not
             (List.exists
                (fun (r : Event.t) ->
                  Event.is_return r && r.tid = ev.tid && r.op_index = ev.op_index)
                h.events))
      h.events
  in
  if not found then invalid_arg "History.restrict_to_pending: operation not pending in history";
  { events = List.filter keep h.events; stuck = true }

let prefixes h =
  let rec go acc rev_prefix = function
    | [] -> List.rev acc
    | e :: rest ->
      let rev_prefix = e :: rev_prefix in
      go ({ events = List.rev rev_prefix; stuck = false } :: acc) rev_prefix rest
  in
  go [ { events = []; stuck = false } ] [] h.events

let equal h1 h2 =
  Bool.equal h1.stuck h2.stuck && List.equal Event.equal h1.events h2.events

let pp ppf h =
  Fmt.pf ppf "@[<v>%a%s@]"
    (Fmt.list ~sep:Fmt.cut Event.pp)
    h.events
    (if h.stuck then " #" else "")

let pp_interleaving ppf h =
  (* Assign ids in call order, as Fig. 7 does. *)
  let ids : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 1 in
  List.iter
    (fun (e : Event.t) ->
      if Event.is_call e then begin
        Hashtbl.replace ids (e.tid, e.op_index) !next;
        incr next
      end)
    h.events;
  let tokens =
    List.map
      (fun (e : Event.t) ->
        let id = Hashtbl.find ids (e.tid, e.op_index) in
        match e.dir with
        | Event.Call _ -> Fmt.str "%d[" id
        | Event.Return _ -> Fmt.str "]%d" id)
      h.events
  in
  let tokens = if h.stuck then tokens @ [ "#" ] else tokens in
  Fmt.string ppf (String.concat " " tokens)
