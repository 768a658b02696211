module Value = Lineup_value.Value
module Op = Lineup_history.Op
module Invocation = Lineup_history.Invocation

(* Decrease-and-conquer membership monitors in the style of Lee & Mathur:
   for unambiguous histories over the insert/remove vocabulary of a queue
   or a stack, linearizability reduces to a fixed set of pairwise interval
   conditions plus (for the stack) a greedy peeling loop — no witness
   enumeration. The engines check a stream in windows, and a window of W
   operations costs O(W log W): W counts its own completed operations,
   the stack's pairs carried over from earlier windows (only a violating
   stream has any) and the unremoved pushes that returned after its
   earliest gap start, never the other unremoved values however many
   there are. Anything outside the supported fragment is reported as
   [Unsupported] and the caller falls back.

   Position arithmetic: [Op.call_pos]/[Op.ret_pos] are event indices in the
   stream, all distinct. A linearization point lies strictly between two
   adjacent events; "slot s" denotes the gap just after event [s], so
   operation [x] may linearize in any slot of [call_pos x .. ret_pos x - 1],
   and a matched value [v] is definitely present in slots
   [ret(insert v) .. call(remove v) - 1] (to infinity when never removed) —
   outside that range a witness can always order the pair around any
   chosen point.

   The checks take a window's matched pairs [(insert, remove)] and, for
   the values not removed yet, only [first_live]: the earliest return
   position among their inserts ([max_int] when there is none). An
   unremoved value adds [max_int] to the FIFO prefix maximum and the slots
   [ret .. max_int] to the covers, so the unremoved values together act as
   the one value returned first (DESIGN.md §6). *)

type verdict = Spec.verdict =
  | Accept
  | Reject
  | Unsupported of string

exception Verdict of verdict

let unsupported fmt = Fmt.kstr (fun s -> raise (Verdict (Unsupported s))) fmt
let reject () = raise (Verdict Reject)
let ret_pos (op : Op.t) = match op.ret_pos with Some p -> p | None -> assert false

(* Merge inclusive integer intervals, joining adjacent ones: the result is
   sorted, disjoint, and covers an integer iff some input interval does.
   ([lo - 1 <= ahi], not [lo <= ahi + 1]: [ahi] may be [max_int].) *)
let merge_intervals ivs =
  let ivs = List.sort (fun (a, _) (b, _) -> Int.compare a b) ivs in
  let rec go acc = function
    | [] -> Array.of_list (List.rev acc)
    | (lo, hi) :: rest -> (
      match acc with
      | (alo, ahi) :: acc' when lo - 1 <= ahi -> go ((alo, max ahi hi) :: acc') rest
      | _ -> go ((lo, hi) :: acc) rest)
  in
  go [] ivs

(* Only the last merged interval starting at or before [lo] can hold it. *)
let fully_covered merged ~lo ~hi =
  let a = ref 0 and b = ref (Array.length merged) in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if fst merged.(mid) <= lo then a := mid + 1 else b := mid
  done;
  !a > 0 && hi <= snd merged.(!a - 1)

(* Definite-presence slot intervals of the matched values and of the
   unremoved ones; an empty-remove is justifiable iff some slot of its own
   range lies outside all of them. *)
let check_empties pairs ~first_live empties =
  if empties <> [] then begin
    let covers =
      List.filter_map
        (fun ((ins : Op.t), (rem : Op.t)) ->
          let lo = ret_pos ins and hi = rem.Op.call_pos - 1 in
          if lo <= hi then Some (lo, hi) else None)
        pairs
    in
    let covers = if first_live < max_int then (first_live, max_int) :: covers else covers in
    let merged = merge_intervals covers in
    List.iter
      (fun (z : Op.t) ->
        if fully_covered merged ~lo:z.Op.call_pos ~hi:(ret_pos z - 1) then reject ())
      empties
  end

(* ------------------------------------------------------------------ *)
(* Queue                                                               *)
(* ------------------------------------------------------------------ *)

(* FIFO condition (the bad-pattern characterization): the history is
   rejected iff there are values v, w with insert(v) <H insert(w), w
   removed, and either v is never removed or remove(w) <H remove(v).
   Encoding an unmatched v as remove-call position +inf turns the test for
   each w into a prefix maximum over the values whose insert returned
   before insert(w)'s call — O(W log W) over the window's pairs, plus the
   one comparison with [first_live] that stands for every unmatched v. *)
let check_fifo pairs ~first_live =
  let arr = Array.of_list pairs in
  Array.sort (fun (e1, _) (e2, _) -> Int.compare (ret_pos e1) (ret_pos e2)) arr;
  let n = Array.length arr in
  let e_rets = Array.map (fun (e, _) -> ret_pos e) arr in
  let prefix_max_rcall = Array.make (n + 1) min_int in
  Array.iteri
    (fun i (_, (r : Op.t)) -> prefix_max_rcall.(i + 1) <- max prefix_max_rcall.(i) r.Op.call_pos)
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
      if first_live < e.Op.call_pos || prefix_max_rcall.(count_before e.Op.call_pos) > ret_pos r
      then reject ())
    arr

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)
(* ------------------------------------------------------------------ *)

(* The work arrays of [peel_leftover], which an engine keeps from window to
   window: once they have grown to its largest window, peeling allocates no
   array, and a stream's windows leave no garbage in the major heap. *)
type scratch = {
  mutable call : int array;  (** blocker -> its call position *)
  mutable ret : int array;  (** blocker -> its return position, [max_int] once peeled *)
  mutable tree : int array;  (** the range-minimum tree *)
  mutable watched : int array;  (** blocker -> the first gap watching it, or [-1] *)
  mutable next_watcher : int array;  (** gap -> the next gap watching the same blocker *)
}

let scratch () = { call = [||]; ret = [||]; tree = [||]; watched = [||]; next_watcher = [||] }

(* [a], or a larger array if [a] is shorter than [n] *)
let at_least a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

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

   [peel_leftover s pairs ~live] returns the matched pairs that never
   become peelable — empty iff the fixpoint consumes everything; [live] are
   the unmatched pushes that may block one, and [s] the engine's work
   arrays. The streaming monitor calls it once per window: peeling is
   monotone and confluent (a peelable pair stays peelable as other pairs
   are removed, and removing a pair only shrinks the blocker sets of the
   rest), so re-running it over the carried-over leftovers plus each new
   window's pairs reaches the same fixpoint as one pass over the whole
   history.

   The blockers inside a gap are those called inside it that return before
   it ends. With the blockers sorted by call position, those called inside
   a gap are one range, and the gap is blocked iff the one of them that
   returns first does so before the gap ends. So each gap watches that one
   blocker, found by a range minimum over the return positions of the
   blockers not yet peeled, and is looked at again only when its watched
   blocker is peeled: O(n log n) for n pairs and blockers, not one test per
   pair and blocker. *)
let peel_leftover s pairs ~live =
  match pairs with
  | [] -> []
  | _ ->
    let nv = List.length pairs in
    let nb = (2 * nv) + List.length live in
    let size =
      let n = ref 1 in
      while !n < nb do
        n := 2 * !n
      done;
      !n
    in
    s.call <- at_least s.call nb;
    s.ret <- at_least s.ret nb;
    s.tree <- at_least s.tree (2 * size);
    s.watched <- at_least s.watched nb;
    s.next_watcher <- at_least s.next_watcher nv;
    let { call; ret; tree; watched; next_watcher } = s in
    (* blocker [2 vi] is pair [vi]'s push, [2 vi + 1] its pop, and the live
       pushes follow *)
    let put b (op : Op.t) =
      call.(b) <- op.Op.call_pos;
      ret.(b) <- ret_pos op
    in
    List.iteri
      (fun vi (ins, rem) ->
        put (2 * vi) ins;
        put ((2 * vi) + 1) rem)
      pairs;
    List.iteri (fun i op -> put ((2 * nv) + i) op) live;
    (* the range-minimum tree: leaf [size + k] is the [k]th blocker by call
       position ([-1] past the last), and node [i] holds the blocker of its
       range that returns first; peeling changes [ret], never a leaf *)
    let earlier a b = if b >= 0 && (a < 0 || ret.(b) < ret.(a)) then b else a in
    List.iteri
      (fun k b -> tree.(size + k) <- b)
      (List.sort (fun a b -> Int.compare call.(a) call.(b)) (List.init nb Fun.id));
    Array.fill tree (size + nb) (size - nb) (-1);
    for i = size - 1 downto 1 do
      tree.(i) <- earlier tree.(2 * i) tree.((2 * i) + 1)
    done;
    (* the first place whose blocker is called after [p] *)
    let called_after p =
      let lo = ref 0 and hi = ref nb in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if call.(tree.(size + mid)) <= p then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let first_returning lo hi =
      let best = ref (-1) and l = ref (lo + size) and r = ref (hi + size) in
      while !l < !r do
        if !l land 1 = 1 then begin
          best := earlier !best tree.(!l);
          incr l
        end;
        if !r land 1 = 1 then begin
          decr r;
          best := earlier !best tree.(!r)
        end;
        l := !l lsr 1;
        r := !r lsr 1
      done;
      !best
    in
    (* a gap watches at most one blocker; [ready] are the gaps found free
       and not yet peeled *)
    Array.fill watched 0 nb (-1);
    let ready = ref [] in
    let examine vi =
      let gap_end = call.((2 * vi) + 1) in
      let b = first_returning (called_after ret.(2 * vi)) (called_after (gap_end - 1)) in
      if b >= 0 && ret.(b) < gap_end then begin
        next_watcher.(vi) <- watched.(b);
        watched.(b) <- vi
      end
      else ready := vi :: !ready
    in
    for vi = 0 to nv - 1 do
      examine vi
    done;
    let release b =
      let i = ref ((size + called_after (call.(b) - 1)) / 2) in
      ret.(b) <- max_int;
      while !i >= 1 do
        tree.(!i) <- earlier tree.(2 * !i) tree.((2 * !i) + 1);
        i := !i / 2
      done;
      let vi = ref watched.(b) in
      watched.(b) <- -1;
      while !vi >= 0 do
        let next = next_watcher.(!vi) in
        examine !vi;
        vi := next
      done
    in
    while !ready <> [] do
      let vi = List.hd !ready in
      ready := List.tl !ready;
      release (2 * vi);
      release ((2 * vi) + 1)
    done;
    (* a peeled pair's push returns at [max_int] *)
    List.filteri (fun vi _ -> ret.(2 * vi) <> max_int) pairs

(* ------------------------------------------------------------------ *)
(* Incremental (streaming) monitors                                    *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  module Event = Lineup_history.Event

  (* The two monitors as engines. Events arrive one at a time; the engine
     batches completed operations into windows and, at each quiescent point
     (no call pending), runs the interval checks above on the window plus
     what the still-live values can change, then garbage-collects the
     decided pairs and empties. A history shorter than [min_batch] is a
     single window at [finalize]; the tables start small for it and grow
     with a stream. Absolute event positions are 63-bit ints assigned on
     arrival and never renormalized, so GC never invalidates a position.

     The live values are a ring in arrival order, which is return order:
     its head is [first_live], and the pushes that can block a stack gap
     (called after the earliest gap start, so returned after it too) are
     its tail. A window reads only those, not the whole live set.

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
       and the leftover set is carried forward ([peel_leftover]). *)

  type cfg = {
    insert_name : string;
    remove_names : string list;
    remove_may_fail : string -> bool;
    lifo : bool;
  }

  (* a live value's insert, linked into the ring *)
  type live = {
    ins : Op.t;
    mutable prev : live;
    mutable next : live;
  }

  type t = {
    cfg : cfg;
    min_batch : int;
    max_window : int;
    mutable pos : int;
    (* (tid, op_index) of each pending call, with its invocation/position *)
    pending : (int * int, Invocation.t * int) Hashtbl.t;
    (* the values whose insert is pending *)
    ins_pending : (int, unit) Hashtbl.t;
    (* value -> its completed insert, not yet removed *)
    live : (int, live) Hashtbl.t;
    (* the ring's sentinel: [ring.next] is the oldest live insert *)
    ring : live;
    (* value -> a remove that returned while the insert was still pending *)
    early_rem : (int, Op.t) Hashtbl.t;
    mutable inserted : Diet.t;
    mutable removed : Diet.t;
    mutable w_pairs : (Op.t * Op.t) list;
    mutable w_empties : Op.t list;
    mutable w_count : int;
    mutable unpeeled : (Op.t * Op.t) list;
    scratch : scratch;
    mutable verdict : verdict option;
    mutable n_ops : int;
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

  (* the sentinel's insert, never read *)
  let no_op =
    {
      Op.tid = -1;
      op_index = -1;
      inv = Invocation.make "";
      resp = None;
      call_pos = -1;
      ret_pos = None;
    }

  let create cfg ~min_batch ~max_window =
    let rec ring = { ins = no_op; prev = ring; next = ring } in
    {
      cfg;
      min_batch = max 1 min_batch;
      max_window = max 1 max_window;
      pos = 0;
      pending = Hashtbl.create 8;
      ins_pending = Hashtbl.create 8;
      live = Hashtbl.create 8;
      ring;
      early_rem = Hashtbl.create 8;
      inserted = Diet.empty;
      removed = Diet.empty;
      w_pairs = [];
      w_empties = [];
      w_count = 0;
      unpeeled = [];
      scratch = scratch ();
      verdict = None;
      n_ops = 0;
      n_windows = 0;
    }

  let create_queue ?(min_batch = 512) ?(max_window = 1_048_576) () =
    create queue_cfg ~min_batch ~max_window

  let create_stack ?(min_batch = 512) ?(max_window = 1_048_576) () =
    create stack_cfg ~min_batch ~max_window

  let add_live t v ins =
    let last = t.ring.prev in
    let node = { ins; prev = last; next = t.ring } in
    last.next <- node;
    t.ring.prev <- node;
    Hashtbl.replace t.live v node

  let take_live t v =
    match Hashtbl.find_opt t.live v with
    | None -> None
    | Some node ->
      Hashtbl.remove t.live v;
      node.prev.next <- node.next;
      node.next.prev <- node.prev;
      Some node.ins

  (* The live pushes that can block a gap of [pairs]: those called after
     the earliest gap start. *)
  let live_blockers t pairs =
    let start = List.fold_left (fun acc (ins, _) -> min acc (ret_pos ins)) max_int pairs in
    let rec walk node acc =
      if node == t.ring || ret_pos node.ins <= start then acc
      else walk node.prev (if node.ins.Op.call_pos > start then node.ins :: acc else acc)
    in
    walk t.ring.prev []

  let run_window t =
    t.n_windows <- t.n_windows + 1;
    let first_live = if t.ring.next == t.ring then max_int else ret_pos t.ring.next.ins in
    check_empties t.w_pairs ~first_live t.w_empties;
    if t.cfg.lifo then begin
      let pairs = List.rev_append t.unpeeled t.w_pairs in
      t.unpeeled <- peel_leftover t.scratch pairs ~live:(live_blockers t pairs)
    end
    else check_fifo t.w_pairs ~first_live;
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
        if Diet.mem v t.inserted then unsupported "ambiguous: value inserted twice";
        t.inserted <- Diet.add v t.inserted;
        Hashtbl.replace t.ins_pending v ()
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
    Hashtbl.remove t.ins_pending v;
    match Hashtbl.find_opt t.early_rem v with
    | Some rem ->
      Hashtbl.remove t.early_rem v;
      t.removed <- Diet.add v t.removed;
      add_pair t op rem
    | None -> add_live t v op

  let on_remove_return t (op : Op.t) resp =
    match resp with
    | Value.Fail ->
      if t.cfg.remove_may_fail op.Op.inv.Invocation.name then
        t.w_empties <- op :: t.w_empties
      else reject ()
    | Value.Int v -> (
      match take_live t v with
      | Some ins ->
        t.removed <- Diet.add v t.removed;
        add_pair t ins op
      | None ->
        if Diet.mem v t.removed then reject () (* removed twice *)
        else if Hashtbl.mem t.ins_pending v then begin
          if Hashtbl.mem t.early_rem v then reject () (* removed twice *)
          else Hashtbl.replace t.early_rem v op
        end
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

  (* A quiescent point is one at which [maybe_window] may already cut the
     stream, so checking the window here only brings its verdict forward. *)
  let flush t =
    if t.verdict = None && Hashtbl.length t.pending = 0 && t.w_count > 0 then
      try run_window t with Verdict v -> t.verdict <- Some v

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
  let windows t = t.n_windows

  (* Upper bound on retained tracking state, in operations — what windowed
     GC keeps bounded. The Diets are excluded: they are interval-compressed
     and measured separately via [interval_count]. *)
  let resident t =
    Hashtbl.length t.live + Hashtbl.length t.pending + Hashtbl.length t.early_rem
    + (2 * List.length t.w_pairs)
    + List.length t.w_empties
    + (2 * List.length t.unpeeled)

  let intervals t = Diet.interval_count t.inserted + Diet.interval_count t.removed
end
