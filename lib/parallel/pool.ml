module Trace = Lineup_observe.Trace

type cancelled = unit -> bool

let default_domains () = Domain.recommended_domain_count ()

(* Trace hooks. Events carry the worker's domain id and the submission
   index; the consumer reconstructs queue-depth curves, per-domain job
   distribution, and cancellation latency (the gap between a [pool.stop]
   and the last [pool.job_done] with [kept=false]) from the timestamped
   NDJSON stream. All hooks are behind [Trace.enabled] — one relaxed
   atomic load when tracing is off. *)
let domain_id () = (Domain.self () :> int)

let trace_take ~index ~queue_depth =
  if Trace.enabled () then
    Trace.emit "pool.take"
      [
        "index", Trace.Int index;
        "domain", Trace.Int (domain_id ());
        "queue_depth", Trace.Int queue_depth;
      ]

let trace_job_done ~index ~kept ~dt =
  if Trace.enabled () then
    Trace.emit "pool.job_done"
      [
        "index", Trace.Int index;
        "domain", Trace.Int (domain_id ());
        "kept", Trace.Bool kept;
        "dt", Trace.Float dt;
      ]

let trace_stop ~index =
  if Trace.enabled () then
    Trace.emit "pool.stop"
      [ "index", Trace.Int index; "domain", Trace.Int (domain_id ()) ]

let trace_skip ~index =
  if Trace.enabled () then
    Trace.emit "pool.skip"
      [ "index", Trace.Int index; "domain", Trace.Int (domain_id ()) ]

(* ---------------- sequential fallback (domains <= 1) ---------------- *)

let never_cancelled () = false

let map_sequential ~stop ~f jobs =
  let rec go acc seq =
    match seq () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons (x, rest) ->
      let r = f ~cancelled:never_cancelled x in
      if stop r then List.rev (r :: acc) else go (r :: acc) rest
  in
  go [] jobs

(* ---------------- parallel pool ---------------- *)

(* Shared state. The bounded queue and [closed] are protected by [mutex];
   [stop_at] is the earliest submission index whose result satisfied [stop]
   (or raised), [max_int] while none has. It only ever decreases, which is
   what makes the output deterministic: a job with index <= the final
   [stop_at] can never observe [cancelled () = true] (that would require
   [stop_at] to have been below its index, contradicting monotonicity), so
   every result the caller sees was computed exactly as a sequential run
   would have computed it. *)
type ('a, 'b) state = {
  mutex : Mutex.t;
  not_empty : Condition.t;  (* an item was queued, or the queue was closed *)
  not_full : Condition.t;  (* an item was taken, or [stop_at] dropped *)
  queue : (int * 'a) Queue.t;
  depth : int;
  mutable closed : bool;
  stop_at : int Atomic.t;
}

let lower_stop_at st i =
  let rec cas () =
    let cur = Atomic.get st.stop_at in
    if i < cur && not (Atomic.compare_and_set st.stop_at cur i) then cas ()
  in
  cas ();
  (* The feeder may be blocked on a full queue; it must wake to notice the
     stop and close the queue. *)
  Mutex.lock st.mutex;
  Condition.broadcast st.not_full;
  Mutex.unlock st.mutex

(* The feeder runs on the calling domain: pull the (lazy) job sequence one
   element at a time, never holding more than [depth] unclaimed jobs. *)
let feed st jobs =
  let rec go i seq =
    match seq () with
    | Seq.Nil -> ()
    | Seq.Cons (x, rest) ->
      Mutex.lock st.mutex;
      while Queue.length st.queue >= st.depth && Atomic.get st.stop_at >= i do
        Condition.wait st.not_full st.mutex
      done;
      let stopped = Atomic.get st.stop_at < i in
      if not stopped then begin
        Queue.add (i, x) st.queue;
        Condition.signal st.not_empty
      end;
      Mutex.unlock st.mutex;
      if not stopped then go (i + 1) rest
  in
  go 0 jobs;
  Mutex.lock st.mutex;
  st.closed <- true;
  Condition.broadcast st.not_empty;
  Mutex.unlock st.mutex

let worker st ~stop ~f () =
  let results = ref [] in
  let rec loop () =
    Mutex.lock st.mutex;
    while Queue.is_empty st.queue && not st.closed do
      Condition.wait st.not_empty st.mutex
    done;
    match Queue.take_opt st.queue with
    | None -> Mutex.unlock st.mutex (* closed and drained: done *)
    | Some (i, x) ->
      let qd = Queue.length st.queue in
      Condition.signal st.not_full;
      Mutex.unlock st.mutex;
      trace_take ~index:i ~queue_depth:qd;
      (* Jobs past a stopping index are skipped outright; their results
         would be discarded anyway. *)
      if Atomic.get st.stop_at >= i then begin
        (* monotonic, not wall-clock: job durations must survive NTP steps *)
        let t0 = Lineup_observe.Monotonic.now () in
        match f ~cancelled:(fun () -> Atomic.get st.stop_at < i) x with
        | r ->
          (* A raising [stop] is contained like a raising job: recorded as
             this index's error, stopping the sweep, re-raised after every
             worker is joined. It must never escape the worker body — a
             dead worker strands queued jobs, and with all workers dead the
             feeder would block on [not_full] forever. *)
          let stopping = match stop r with s -> Ok s | exception e -> Error e in
          results :=
            (i, match stopping with Ok _ -> Ok r | Error e -> Error e) :: !results;
          trace_job_done ~index:i
            ~kept:(Atomic.get st.stop_at >= i)
            ~dt:(Lineup_observe.Monotonic.elapsed_since t0);
          (match stopping with
           | Ok false -> ()
           | Ok true | Error _ ->
             lower_stop_at st i;
             trace_stop ~index:i)
        | exception e ->
          results := (i, Error e) :: !results;
          trace_job_done ~index:i ~kept:true ~dt:(Lineup_observe.Monotonic.elapsed_since t0);
          lower_stop_at st i;
          trace_stop ~index:i
      end
      else trace_skip ~index:i;
      loop ()
  in
  loop ();
  !results

let map_parallel ~domains ~depth ~stop ~f jobs =
  let st =
    {
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      queue = Queue.create ();
      depth;
      closed = false;
      stop_at = Atomic.make max_int;
    }
  in
  let workers = List.init domains (fun _ -> Domain.spawn (worker st ~stop ~f)) in
  (* Every exception path must still close the queue and join every worker:
     an unjoined domain is leaked for the process lifetime, and a worker
     left blocked on [not_empty] after a feeder exception would never
     terminate at all. *)
  let feeder_error =
    match feed st jobs with
    | () -> None
    | exception e ->
      Mutex.lock st.mutex;
      st.closed <- true;
      Condition.broadcast st.not_empty;
      Mutex.unlock st.mutex;
      Some e
  in
  (* [f] exceptions come back as [Error] results; what [Domain.join] can
     re-raise is an escape from [stop] or a trace hook. Join everything
     before letting any of it propagate. *)
  let joined =
    List.map (fun d -> match Domain.join d with rs -> Ok rs | exception e -> Error e) workers
  in
  (match List.find_opt Result.is_error joined with
   | Some (Error e) -> raise e
   | Some (Ok _) | None -> ());
  let all = List.concat_map Result.get_ok joined in
  let cut = Atomic.get st.stop_at in
  let results =
    List.sort (fun (i, _) (j, _) -> Int.compare i j) all
    |> List.filter_map (fun (i, r) ->
           if i > cut then None
           else match r with Ok v -> Some v | Error e -> raise e)
  in
  match feeder_error with Some e -> raise e | None -> results

let map_seq ?(domains = 1) ?(stop = fun _ -> false) ~f jobs =
  if domains <= 1 then map_sequential ~stop ~f jobs
  else map_parallel ~domains ~depth:(2 * domains) ~stop ~f jobs
