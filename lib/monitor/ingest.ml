module Event = Lineup_history.Event

(* The bounded queue between the reader domain (parsing NDJSON lines) and
   the checking loop under [--on-full shed]: drop whole operations while
   the queue is full. A call arriving while the queue is full is
   remembered and dropped; when its return arrives, a [Shed_op] marker
   carrying both events is force-pushed (markers are exempt from the
   bound, which sheds can only shrink). The engines degrade accept-lean on
   the marker — a Reject is still trustworthy.

   Whole-op shedding keeps the stream well-formed: dropping only one of a
   call/return pair would manufacture "return without call" corruption.

   [Block], the lossless default, needs no queue: the checking domain
   reads the stream itself (see [Driver]). *)

type policy =
  | Block
  | Shed

type item =
  | Ev of { hist : int option; event : Event.t }
  | Shed_op of { call : Event.t; ret : Event.t }
  | Bad of string

type t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  items : item Queue.t;
  cap : int;
  mutable closed : bool;
  (* consumer gone: drop instead of blocking so the reader can drain to EOF *)
  mutable abandoned : bool;
  mutable n_sheds : int;
  (* reader-side only (no lock needed): calls dropped under [Shed], keyed
     by (tid, op_index), waiting for their return *)
  shed_calls : (int * int, Event.t) Hashtbl.t;
}

let create ?(cap = 65536) () =
  {
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    items = Queue.create ();
    cap = max 1 cap;
    closed = false;
    abandoned = false;
    n_sheds = 0;
    shed_calls = Hashtbl.create 64;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Enqueue regardless of the bound (Shed_op / Bad markers). *)
let force_push t item =
  with_lock t (fun () ->
      if not t.abandoned then begin
        Queue.add item t.items;
        Condition.signal t.not_empty
      end)

let blocking_push t item =
  with_lock t (fun () ->
      while Queue.length t.items >= t.cap && not t.abandoned do
        Condition.wait t.not_full t.mutex
      done;
      if not t.abandoned then begin
        Queue.add item t.items;
        Condition.signal t.not_empty
      end)

(* [Some true]: the queue is full (checked without waiting). *)
let is_full t = with_lock t (fun () -> Queue.length t.items >= t.cap)

let push_line t (line : Mevent.line) =
  match line with
  | Mevent.Blank | Mevent.Skip -> ()
  | Mevent.Malformed e -> force_push t (Bad e)
  | Mevent.Ev { hist; event } -> (
    let id = event.Event.tid, event.Event.op_index in
    match event.Event.dir with
    | Event.Call _ ->
      if Hashtbl.mem t.shed_calls id then
        (* duplicate id while shed — malformed; let the engine decide *)
        force_push t (Bad "duplicate call for a shed operation")
      else if is_full t then begin
        t.n_sheds <- t.n_sheds + 1;
        Hashtbl.replace t.shed_calls id event
      end
      else blocking_push t (Ev { hist; event })
    | Event.Return _ -> (
      match Hashtbl.find_opt t.shed_calls id with
      | Some call ->
        Hashtbl.remove t.shed_calls id;
        force_push t (Shed_op { call; ret = event })
      | None -> blocking_push t (Ev { hist; event })))

let pop_batch t ~max =
  with_lock t (fun () ->
      while Queue.is_empty t.items && not t.closed do
        Condition.wait t.not_empty t.mutex
      done;
      let batch = ref [] in
      let n = ref 0 in
      while !n < max && not (Queue.is_empty t.items) do
        batch := Queue.pop t.items :: !batch;
        incr n
      done;
      Condition.broadcast t.not_full;
      List.rev !batch)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.not_empty)

let abandon t =
  with_lock t (fun () ->
      t.abandoned <- true;
      t.closed <- true;
      Queue.clear t.items;
      Condition.broadcast t.not_full;
      Condition.broadcast t.not_empty)

let sheds t = t.n_sheds
let depth t = with_lock t (fun () -> Queue.length t.items)
