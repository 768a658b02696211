(* The queue and stack membership checks as they were before each window
   cost only what it holds, kept as the reference the streaming engines
   ([Lineup_spec.Monitor.Stream]) are tested against: [check_empties],
   [check_fifo] and [peel_leftover] over every value of a complete history
   at once, the unremoved ones as [(insert, None)], with the value-safety
   classification of the offline monitors they came from. Not tuned: the
   peel tests every blocker against every matched pair. *)

module Value = Lineup_value.Value
module Op = Lineup_history.Op
module Invocation = Lineup_history.Invocation
module History = Lineup_history.History

exception Verdict of Lineup_spec.Spec.verdict

let reject () = raise (Verdict Lineup_spec.Spec.Reject)
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


(* Each value's insert and remove, and the failed removes; a value
   removed twice, removed but never inserted, or removed before its
   insert is called is rejected. Only the fragment the generated streams
   use: integer inserts, unit removes. *)
let classify ~insert_name h =
  let ins = Hashtbl.create 64 and rem = Hashtbl.create 64 and empties = ref [] in
  List.iter
    (fun (op : Op.t) ->
      match op.Op.inv.Invocation.arg, op.Op.resp with
      | Value.Int v, _ when String.equal op.Op.inv.Invocation.name insert_name ->
        Hashtbl.replace ins v op
      | _, Some Value.Fail -> empties := op :: !empties
      | _, Some (Value.Int v) ->
        if Hashtbl.mem rem v then reject ();
        Hashtbl.replace rem v op
      | _ -> invalid_arg "Monitor_reference.classify: outside the fragment")
    (History.ops h);
  Hashtbl.iter
    (fun v r ->
      match Hashtbl.find_opt ins v with
      | None -> reject ()
      | Some i -> if Op.precedes r i then reject ())
    rem;
  Hashtbl.fold (fun v i acc -> (i, Hashtbl.find_opt rem v) :: acc) ins [], !empties

(* The whole complete history as one window. *)
let decide ~lifo h =
  try
    let values, empties = classify ~insert_name:(if lifo then "Push" else "Enqueue") h in
    if lifo then begin
      check_empties values empties;
      if peel_leftover values <> [] then reject ()
    end
    else begin
      check_fifo values;
      check_empties values empties
    end;
    Lineup_spec.Spec.Accept
  with Verdict v -> v
