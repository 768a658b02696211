module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Var_array = Lineup_runtime.Var_array
module Rt = Lineup_runtime.Rt
open Util

let capacity = 2

type segment = {
  values : int Var_array.t;  (* plain: ordered by the committed flags *)
  committed : bool Var_array.t;
  low : int Var.t;  (* next slot to dequeue *)
  high : int Var.t;  (* next slot to enqueue-reserve *)
  next : segment option Var.t;
}

let new_segment () =
  {
    values = Var_array.make ~name:"seg.val" capacity 0;
    committed = Var_array.make ~volatile:true ~name:"seg.c" capacity false;
    low = Var.make ~volatile:true ~name:"seg.low" 0;
    high = Var.make ~volatile:true ~name:"seg.high" 0;
    next = Var.make ~volatile:true ~name:"seg.next" None;
  }

let universe =
  [ inv_int "Enqueue" 200; inv_int "Enqueue" 400; inv "TryDequeue"; inv "TryPeek"; inv "IsEmpty" ]

let adapter =
  let create () =
    let seg0 = new_segment () in
    let head = Var.make ~volatile:true ~name:"sq.head" seg0 in
    let tail = Var.make ~volatile:true ~name:"sq.tail" seg0 in
    let rec enqueue x =
      let s = Var.read tail in
      let i = Var.read s.high in
      if i < capacity then begin
        if Var.cas s.high i (i + 1) then begin
          (* slot i reserved: fill, then commit *)
          Var_array.write s.values i x;
          Var_array.write s.committed i true
        end
        else begin
          Rt.yield ();
          enqueue x
        end
      end
      else begin
        (* segment full: link a fresh one (or help), advance the tail *)
        (match Var.read s.next with
         | None ->
           let s' = new_segment () in
           if Var.cas s.next None (Some s') then ignore (Var.cas tail s s')
         | Some s' -> ignore (Var.cas tail s s'));
        Rt.yield ();
        enqueue x
      end
    in
    (* wait for a reserved slot to be committed; the reserving enqueuer is
       guaranteed to commit, so this terminates under fair scheduling *)
    let await_commit s i =
      while not (Var_array.read s.committed i) do
        Rt.yield ()
      done
    in
    let rec try_dequeue () =
      let s = Var.read head in
      let i = Var.read s.low in
      if i >= capacity then begin
        (* segment exhausted: advance to the next, if any *)
        match Var.read s.next with
        | None -> Value.Fail
        | Some s' ->
          ignore (Var.cas head s s');
          Rt.yield ();
          try_dequeue ()
      end
      else if i >= Var.read s.high then Value.Fail (* nothing reserved: empty *)
      else if Var.cas s.low i (i + 1) then begin
        (* won slot i *)
        await_commit s i;
        Value.int (Var_array.read s.values i)
      end
      else begin
        Rt.yield ();
        try_dequeue ()
      end
    in
    let rec try_peek () =
      let s = Var.read head in
      let i = Var.read s.low in
      if i >= capacity then begin
        match Var.read s.next with
        | None -> Value.Fail
        | Some s' ->
          ignore (Var.cas head s s');
          Rt.yield ();
          try_peek ()
      end
      else if i >= Var.read s.high then Value.Fail
      else begin
        (* like .NET, peek waits for the head slot to commit *)
        await_commit s i;
        (* the slot may have been dequeued meanwhile; the value cell is
           written once, so reading it is still the value enqueued there,
           and linearizing the peek before that dequeue justifies it *)
        Value.int (Var_array.read s.values i)
      end
    in
    (* Read [low] before [high]: both only grow and [low <= high], so
       [low >= high] then means the segment was empty when [low] was read.
       The reverse order (what OCaml's right-to-left evaluation of
       [Var.read s.low >= Var.read s.high] does) can see a [high] older than
       a [low] that has since caught up with it, and report an empty queue
       that never was. *)
    let is_empty () =
      let s = Var.read head in
      let low = Var.read s.low in
      let high = Var.read s.high in
      low >= high && Option.is_none (Var.read s.next)
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Enqueue", Value.Int x ->
        enqueue x;
        Value.unit
      | "TryDequeue", Value.Unit -> try_dequeue ()
      | "TryPeek", Value.Unit -> try_peek ()
      | "IsEmpty", Value.Unit -> Value.bool (is_empty ())
      | _ -> unexpected "SegmentQueue" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name:"SegmentQueue" ~universe create
