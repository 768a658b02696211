module Value = Lineup_value.Value
module Op = Lineup_history.Op
module Invocation = Lineup_history.Invocation

(* Decrease-and-conquer membership monitors in the style of Lee & Mathur:
   for unambiguous histories over the insert/remove vocabulary of a queue
   or a stack, linearizability reduces to a fixed set of pairwise interval
   conditions plus (for the stack) a greedy peeling loop — no witness
   enumeration. Near-linear instead of the exponential generic search;
   anything outside the supported fragment is reported as [Unsupported]
   and the caller falls back.

   Position arithmetic: [Op.call_pos]/[Op.ret_pos] are event indices in the
   stream, all distinct. A linearization point lies strictly between two
   adjacent events; "slot s" denotes the gap just after event [s], so
   operation [x] may linearize in any slot of [call_pos x .. ret_pos x - 1],
   and a matched value [v] is definitely present in slots
   [ret(insert v) .. call(remove v) - 1] (to infinity when never removed) —
   outside that range a witness can always order the pair around any
   chosen point. *)

type verdict = Spec.verdict =
  | Accept
  | Reject
  | Unsupported of string

exception Verdict of verdict

let unsupported fmt = Fmt.kstr (fun s -> raise (Verdict (Unsupported s))) fmt
let reject () = raise (Verdict Reject)
let ret_pos (op : Op.t) = match op.ret_pos with Some p -> p | None -> assert false

(* Merge inclusive integer intervals, joining adjacent ones, so that the
   merged list covers an integer iff some input interval does. *)
let merge_intervals ivs =
  let ivs = List.sort (fun (a, _) (b, _) -> Int.compare a b) ivs in
  let rec go acc = function
    | [] -> List.rev acc
    | (lo, hi) :: rest -> (
      match acc with
      | (alo, ahi) :: acc' when lo <= ahi + 1 -> go ((alo, max ahi hi) :: acc') rest
      | _ -> go ((lo, hi) :: acc) rest)
  in
  go [] ivs

let fully_covered merged ~lo ~hi =
  List.exists (fun (mlo, mhi) -> mlo <= lo && hi <= mhi) merged

(* Definite-presence slot intervals of the matched values; an empty-remove
   is justifiable iff some slot of its own range lies outside all of them. *)
let check_empties values empties =
  let covers =
    List.filter_map
      (fun (ins, rem) ->
        let lo = ret_pos ins in
        let hi = match rem with Some r -> r.Op.call_pos - 1 | None -> max_int in
        if lo <= hi then Some (lo, hi) else None)
      values
  in
  let merged = merge_intervals covers in
  List.iter
    (fun (z : Op.t) ->
      if fully_covered merged ~lo:z.Op.call_pos ~hi:(ret_pos z - 1) then reject ())
    empties

(* ------------------------------------------------------------------ *)
(* Queue                                                               *)
(* ------------------------------------------------------------------ *)

(* FIFO condition (the bad-pattern characterization): the history is
   rejected iff there are values v, w with insert(v) <H insert(w), w
   removed, and either v is never removed or remove(w) <H remove(v).
   Encoding an unmatched v as remove-call position +inf turns the test for
   each w into a prefix maximum over the values whose insert returned
   before insert(w)'s call — O(V log V) total. *)
let check_fifo values =
  let arr = Array.of_list values in
  Array.sort (fun (e1, _) (e2, _) -> Int.compare (ret_pos e1) (ret_pos e2)) arr;
  let n = Array.length arr in
  let e_rets = Array.map (fun (e, _) -> ret_pos e) arr in
  let prefix_max_rcall = Array.make (n + 1) min_int in
  Array.iteri
    (fun i (_, r) ->
      let rc = match r with Some r -> r.Op.call_pos | None -> max_int in
      prefix_max_rcall.(i + 1) <- max prefix_max_rcall.(i) rc)
    arr;
  (* number of values whose insert returned before position [x] *)
  let count_before x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if e_rets.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.iter
    (fun ((e : Op.t), r) ->
      match r with
      | None -> ()
      | Some r ->
        let k = count_before e.Op.call_pos in
        if prefix_max_rcall.(k) > ret_pos r then reject ())
    arr

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)
(* ------------------------------------------------------------------ *)

(* Greedy peeling: a matched value [v] is eligible when no other
   insert/remove operation is forced strictly between push(v) and pop(v)
   (i.e. lies entirely inside the open gap (ret(push v), call(pop v))) —
   then push(v); pop(v) can appear adjacently in a witness and removing the
   pair preserves linearizability in both directions. Repeat until every
   matched value is peeled; getting stuck means some value can never reach
   the top when it is popped. Pop-empties never block: one forced strictly
   inside a gap is already rejected by the covering check (the value is
   definitely present throughout). Unmatched pushes block forever, which is
   exactly right — a value stuck above [v] that is never popped.

   [peel_leftover] returns the matched pairs that never become peelable —
   empty iff the fixpoint consumes everything. The streaming monitor calls
   it once per window: peeling is monotone and confluent (a peelable pair
   stays peelable as other pairs are removed, and removing a pair only
   shrinks the blocker sets of the rest), so re-running it over the
   carried-over leftovers plus each new window's pairs reaches the same
   fixpoint as one pass over the whole history. *)
let peel_leftover values =
  let matched =
    Array.of_list (List.filter_map (fun (i, r) -> Option.map (fun r -> i, r) r) values)
  in
  let nv = Array.length matched in
  let blockers =
    List.concat_map (fun (i, r) -> i :: Option.to_list r) values
  in
  let inside (x : Op.t) vi =
    let (ins : Op.t), (rem : Op.t) = matched.(vi) in
    x.Op.call_pos > ret_pos ins && ret_pos x < rem.Op.call_pos
  in
  let counts = Array.make nv 0 in
  (* per blocking operation, the gaps it currently blocks *)
  let gaps_of : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (x : Op.t) ->
      let gs = ref [] in
      for vi = nv - 1 downto 0 do
        if inside x vi then begin
          counts.(vi) <- counts.(vi) + 1;
          gs := vi :: !gs
        end
      done;
      if !gs <> [] then Hashtbl.replace gaps_of (Op.key x) !gs)
    blockers;
  let peeled = Array.make nv false in
  let ready = Queue.create () in
  Array.iteri (fun vi c -> if c = 0 then Queue.add vi ready) counts;
  let remaining = ref nv in
  let release (x : Op.t) =
    List.iter
      (fun vi ->
        counts.(vi) <- counts.(vi) - 1;
        if counts.(vi) = 0 && not peeled.(vi) then Queue.add vi ready)
      (Option.value ~default:[] (Hashtbl.find_opt gaps_of (Op.key x)))
  in
  while not (Queue.is_empty ready) do
    let vi = Queue.pop ready in
    if not peeled.(vi) then begin
      peeled.(vi) <- true;
      decr remaining;
      let ins, rem = matched.(vi) in
      release ins;
      release rem
    end
  done;
  if !remaining = 0 then []
  else
    Array.to_list matched
    |> List.filteri (fun vi _ -> not peeled.(vi))

(* ------------------------------------------------------------------ *)
(* Incremental (streaming) monitors                                    *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  module Event = Lineup_history.Event

  (* The two monitors as engines. Events arrive one at a time; the engine
     batches completed operations into windows and, at each quiescent point
     (no call pending), runs the interval checks above on the window plus
     the still-live values, then garbage-collects the decided pairs and
     empties. A history shorter than [min_batch], as phase 2 of a check
     feeds one, is a single window at [finalize]; the tables start small
     for it and grow with a stream. Absolute event positions are 63-bit ints assigned
     on arrival and never renormalized, so GC never invalidates a
     position.

     Why GC cannot change a verdict (see also DESIGN.md):
     - FIFO: a violating pair (v, w) with w removed while v is still live
       is caught in w's window, because an unremoved v contributes
       [max_int] to the prefix maximum; if v's remove completed in an
       earlier window, no violation involving (v, w) exists at all.
     - Empty covers: a GC'd pair's cover interval ends strictly before the
       window boundary, hence before any later empty-remove's call; it can
       neither cover a slot of that empty's range nor bridge two retained
       intervals across the boundary.
     - Stack peeling is monotone and confluent, so peeled pairs are final
       and the leftover set is carried forward ([peel_leftover]).

     Load shedding ([shed]) degrades the engine accept-lean: a shed insert
     grants its value amnesty (later operations on it are swallowed), a
     shed remove silently consumes its value, and once anything was shed a
     remove of an unknown value is swallowed rather than rejected. A
     [Reject] therefore remains trustworthy under shedding; only
     completeness is lost. *)

  type cfg = {
    insert_name : string;
    remove_names : string list;
    remove_may_fail : string -> bool;
    lifo : bool;
  }

  type t = {
    cfg : cfg;
    min_batch : int;
    max_window : int;
    mutable pos : int;
    (* (tid, op_index) of each pending call, with its invocation/position *)
    pending : (int * int, Invocation.t * int) Hashtbl.t;
    (* value -> the number of its pending inserts (0/1 outside amnesty) *)
    ins_pending : (int, unit) Hashtbl.t;
    (* value -> its completed insert, not yet removed *)
    live : (int, Op.t) Hashtbl.t;
    (* value -> a remove that returned while the insert was still pending *)
    early_rem : (int, Op.t) Hashtbl.t;
    mutable inserted : Diet.t;
    mutable removed : Diet.t;
    mutable amnesty : Diet.t;
    mutable w_pairs : (Op.t * Op.t) list;
    mutable w_empties : Op.t list;
    mutable w_count : int;
    mutable unpeeled : (Op.t * Op.t) list;
    mutable verdict : verdict option;
    mutable n_ops : int;
    mutable n_sheds : int;
    mutable n_windows : int;
  }

  let queue_cfg =
    {
      insert_name = "Enqueue";
      remove_names = [ "TryDequeue"; "Take" ];
      remove_may_fail = String.equal "TryDequeue";
      lifo = false;
    }

  let stack_cfg =
    {
      insert_name = "Push";
      remove_names = [ "TryPop" ];
      remove_may_fail = (fun _ -> true);
      lifo = true;
    }

  let create cfg ~min_batch ~max_window =
    {
      cfg;
      min_batch = max 1 min_batch;
      max_window = max 1 max_window;
      pos = 0;
      pending = Hashtbl.create 8;
      ins_pending = Hashtbl.create 8;
      live = Hashtbl.create 8;
      early_rem = Hashtbl.create 8;
      inserted = Diet.empty;
      removed = Diet.empty;
      amnesty = Diet.empty;
      w_pairs = [];
      w_empties = [];
      w_count = 0;
      unpeeled = [];
      verdict = None;
      n_ops = 0;
      n_sheds = 0;
      n_windows = 0;
    }

  let create_queue ?(min_batch = 512) ?(max_window = 1_048_576) () =
    create queue_cfg ~min_batch ~max_window

  let create_stack ?(min_batch = 512) ?(max_window = 1_048_576) () =
    create stack_cfg ~min_batch ~max_window

  let live_values t =
    Hashtbl.fold (fun _ ins acc -> (ins, None) :: acc) t.live []

  let run_window t =
    t.n_windows <- t.n_windows + 1;
    let pairs = List.rev_map (fun (i, r) -> i, Some r) t.w_pairs in
    let values = List.rev_append pairs (live_values t) in
    if t.cfg.lifo then begin
      check_empties values t.w_empties;
      let carried = List.rev_map (fun (i, r) -> i, Some r) t.unpeeled in
      t.unpeeled <- peel_leftover (List.rev_append carried values)
    end
    else begin
      check_fifo values;
      check_empties values t.w_empties
    end;
    t.w_pairs <- [];
    t.w_empties <- [];
    t.w_count <- 0

  let maybe_window t =
    if Hashtbl.length t.pending = 0 then begin
      if t.w_count >= t.min_batch then run_window t
    end
    else if t.w_count + Hashtbl.length t.pending > t.max_window then
      unsupported "no quiescent point within %d operations" t.max_window

  let on_call t tid op_index (inv : Invocation.t) =
    if Hashtbl.mem t.pending (tid, op_index) then
      unsupported "duplicate call for operation (%d, %d)" tid op_index;
    let name = inv.Invocation.name in
    if String.equal name t.cfg.insert_name then (
      match inv.Invocation.arg with
      | Value.Int v ->
        if Diet.mem v t.amnesty then ()
        else if Diet.mem v t.inserted then
          unsupported "ambiguous: value inserted twice"
        else begin
          t.inserted <- Diet.add v t.inserted;
          Hashtbl.replace t.ins_pending v ()
        end
      | _ -> unsupported "non-integer %s argument" t.cfg.insert_name)
    else if List.mem name t.cfg.remove_names then (
      match inv.Invocation.arg with
      | Value.Unit -> ()
      | _ -> unsupported "unexpected %s argument" name)
    else unsupported "unsupported operation %s" name;
    Hashtbl.add t.pending (tid, op_index) (inv, t.pos);
    t.pos <- t.pos + 1

  let add_pair t ins rem =
    t.w_pairs <- (ins, rem) :: t.w_pairs

  let on_insert_return t (op : Op.t) v =
    if Diet.mem v t.amnesty then Hashtbl.remove t.ins_pending v
    else begin
      Hashtbl.remove t.ins_pending v;
      match Hashtbl.find_opt t.early_rem v with
      | Some rem ->
        Hashtbl.remove t.early_rem v;
        t.removed <- Diet.add v t.removed;
        add_pair t op rem
      | None -> Hashtbl.replace t.live v op
    end

  let on_remove_return t (op : Op.t) resp =
    match resp with
    | Value.Fail ->
      if t.cfg.remove_may_fail op.Op.inv.Invocation.name then
        t.w_empties <- op :: t.w_empties
      else reject ()
    | Value.Int v -> (
      match Hashtbl.find_opt t.live v with
      | Some ins ->
        Hashtbl.remove t.live v;
        t.removed <- Diet.add v t.removed;
        add_pair t ins op
      | None ->
        if Diet.mem v t.amnesty then ()
        else if Diet.mem v t.removed then reject () (* removed twice *)
        else if Hashtbl.mem t.ins_pending v then begin
          if Hashtbl.mem t.early_rem v then reject () (* removed twice *)
          else Hashtbl.replace t.early_rem v op
        end
        else if t.n_sheds > 0 then () (* plausibly pairs with a shed insert *)
        else reject () (* removed but never inserted *))
    | _ -> reject ()

  let feed t (ev : Event.t) =
    match t.verdict with
    | Some _ -> ()
    | None -> (
      try
        (match ev.Event.dir with
         | Event.Call inv -> on_call t ev.Event.tid ev.Event.op_index inv
         | Event.Return resp -> (
           match Hashtbl.find_opt t.pending (ev.Event.tid, ev.Event.op_index) with
           | None ->
             unsupported "return without call for operation (%d, %d)"
               ev.Event.tid ev.Event.op_index
           | Some (inv, call_pos) ->
             Hashtbl.remove t.pending (ev.Event.tid, ev.Event.op_index);
             let op =
               {
                 Op.tid = ev.Event.tid;
                 op_index = ev.Event.op_index;
                 inv;
                 resp = Some resp;
                 call_pos;
                 ret_pos = Some t.pos;
               }
             in
             t.pos <- t.pos + 1;
             t.n_ops <- t.n_ops + 1;
             t.w_count <- t.w_count + 1;
             if String.equal inv.Invocation.name t.cfg.insert_name then begin
               if not (Value.equal resp Value.unit) then reject ();
               match inv.Invocation.arg with
               | Value.Int v -> on_insert_return t op v
               | _ -> assert false (* checked at call *)
             end
             else on_remove_return t op resp));
        maybe_window t
      with Verdict v -> t.verdict <- Some v)

  (* A shed operation ran in the monitored system but was dropped from the
     stream under load. [call]/[ret] are the op's two events as captured at
     drop time; degrade accept-lean (see the module comment). *)
  let shed t ~(call : Event.t) ~(ret : Event.t) =
    match t.verdict with
    | Some _ -> ()
    | None ->
      t.n_sheds <- t.n_sheds + 1;
      (match call.Event.dir with
       | Event.Call inv when String.equal inv.Invocation.name t.cfg.insert_name
         -> (
           match inv.Invocation.arg with
           | Value.Int v -> t.amnesty <- Diet.add v t.amnesty
           | _ -> ())
       | Event.Call inv when List.mem inv.Invocation.name t.cfg.remove_names
         -> (
           match ret.Event.dir with
           | Event.Return (Value.Int v) ->
             if Hashtbl.mem t.live v then begin
               Hashtbl.remove t.live v;
               t.removed <- Diet.add v t.removed
             end
             else t.amnesty <- Diet.add v t.amnesty
           | _ -> ())
       | _ -> ())

  let verdict_now t = t.verdict

  let finalize t =
    match t.verdict with
    | Some v -> v
    | None ->
      let v =
        try
          if Hashtbl.length t.pending > 0 then unsupported "pending operation";
          run_window t;
          if t.cfg.lifo && t.unpeeled <> [] then reject ();
          Accept
        with Verdict v -> v
      in
      t.verdict <- Some v;
      v

  let ops t = t.n_ops
  let sheds t = t.n_sheds
  let windows t = t.n_windows

  (* Upper bound on retained tracking state, in operations — what windowed
     GC keeps bounded. The Diets are excluded: they are interval-compressed
     and measured separately via [interval_count]. *)
  let resident t =
    Hashtbl.length t.live + Hashtbl.length t.pending + Hashtbl.length t.early_rem
    + (2 * List.length t.w_pairs)
    + List.length t.w_empties
    + (2 * List.length t.unpeeled)

  let intervals t =
    Diet.interval_count t.inserted
    + Diet.interval_count t.removed
    + Diet.interval_count t.amnesty
end
