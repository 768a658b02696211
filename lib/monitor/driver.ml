module Monitor = Lineup_spec.Monitor
module Event = Lineup_history.Event
module Pool = Lineup_parallel.Pool
module Metrics = Lineup_observe.Metrics
module Trace = Lineup_observe.Trace

(* The streaming driver. Under [Block] (the default) the calling domain
   reads the stream a chunk at a time, scans each line once
   ({!Mevent.read}) and feeds the engine, looking for a verdict after
   every chunk. Under [Shed] a reader domain reads into a bounded
   {!Ingest} queue, so that it keeps draining the producer while the
   engine is behind, and the calling domain feeds what it pops.

   Either way one engine checks the stream on the calling domain. For
   keyed classes (set, dictionary) that engine already checks each key as
   its own object (P-compositionality, {!Lineup_spec.Kmon}); splitting the
   stream by key across domains only added a domain spawn per round and
   let a corrupt stream pass (EXPERIMENTS.md, "Retiring live monitor
   sharding"). [domains] fans out {!replay}'s independent histories.

   Block mode has no reader domain because one only helped while it had
   somewhere to put its lead: a reader that outran the engine kept the
   queue full of parsed events, and peak RSS rose by a quarter (DESIGN.md
   §6). *)

type opts = {
  domains : int;
  min_batch : int;
  max_window : int;
  queue_cap : int;
  on_full : Ingest.policy;
  report_every : int;
  follow : bool;
}

let default_opts =
  {
    domains = 1;
    min_batch = Engine.default_min_batch;
    max_window = Engine.default_max_window;
    queue_cap = 65536;
    on_full = Ingest.Block;
    report_every = 0;
    follow = false;
  }

type outcome = {
  verdict : Monitor.verdict;
  ops : int;
  sheds : int;
  windows : int;
  resident_peak : int;
}

(* Reject from any history dominates (a violation in one history is a
   violation of the recording); otherwise the first Unsupported; otherwise
   Accept. Deterministic for any [domains] because the histories keep
   their first-appearance order. *)
let combine verdicts =
  let rec go unsup = function
    | [] -> ( match unsup with Some u -> u | None -> Monitor.Accept)
    | Monitor.Reject :: _ -> Monitor.Reject
    | (Monitor.Unsupported _ as u) :: rest ->
      go (match unsup with Some _ -> unsup | None -> Some u) rest
    | Monitor.Accept :: rest -> go unsup rest
  in
  go None verdicts

(* Under [Shed], the reader domain. It closes the queue however it exits,
   so the checking loop never waits on a dead reader. *)
let spawn_reader ~follow queue ic =
  Domain.spawn (fun () ->
      Fun.protect ~finally:(fun () -> Ingest.close queue) @@ fun () ->
      let r = Mevent.reader ic in
      let push = Ingest.push_line queue in
      let rec loop () =
        match Mevent.read r push with
        | true -> loop ()
        | false ->
          (* --follow: an EOF on a FIFO only means every current writer
             closed — re-arm and wait for the next writer session instead
             of finalizing, so the monitor outlives its producers. A
             followed stream ends by verdict, never by EOF. *)
          if follow then begin
            Unix.sleepf 0.05;
            loop ()
          end
        | exception Sys_error e -> push (Mevent.Malformed e)
      in
      loop ())

(* [resident_peak] samples the engine after every [sample_every]-th fed
   event and at the end of the stream, until a verdict settles. The samples
   fall at the same events whatever the reads or rounds, so the peak
   depends on the stream alone: not on timing, on file or pipe input, or
   on [domains]. *)
let sample_every = 256

let run ~spec ~opts ?metrics ic =
  let engine = Engine.create ~spec ~min_batch:opts.min_batch ~max_window:opts.max_window in
  let bad = ref None in
  let fed = ref 0 in
  let resident_peak = ref 0 in
  let next_report = ref (if opts.report_every > 0 then opts.report_every else max_int) in
  let settled () = !bad <> None || Engine.verdict_now engine <> None in
  let sample () =
    if not (settled ()) then resident_peak := max !resident_peak (Engine.resident engine)
  in
  (* nothing after a malformed line is fed *)
  let feed_event ev =
    match !bad with
    | Some _ -> ()
    | None ->
      Engine.feed engine ev;
      incr fed;
      if !fed mod sample_every = 0 then sample ()
  in
  let feed_shed call ret =
    match !bad with Some _ -> () | None -> Engine.shed engine ~call ~ret
  in
  let fail e = if !bad = None then bad := Some e in
  (* The end of a round: report progress, and say whether the verdict is
     decided. *)
  let round_decided ~depth =
    if !fed >= !next_report then begin
      next_report := !fed + opts.report_every;
      let resident = Engine.resident engine in
      Trace.emit "monitor.tick"
        [ "ops", Trace.Int !fed; "depth", Trace.Int depth; "resident", Trace.Int resident ];
      Fmt.epr "monitor: %d events, resident %d@." !fed resident
    end;
    settled ()
  in
  let queue_sheds =
    match opts.on_full with
    | Ingest.Block ->
      let r = Mevent.reader ic in
      let on_line = function
        | Mevent.Ev { event; _ } -> feed_event event
        | Mevent.Malformed e -> fail e
        | Mevent.Blank | Mevent.Skip -> ()
      in
      let rec loop () =
        match Mevent.read r on_line with
        | more ->
          if not (round_decided ~depth:0) then
            if more then loop ()
            else if opts.follow then begin
              (* see [spawn_reader] *)
              Unix.sleepf 0.05;
              loop ()
            end
        | exception Sys_error e -> fail e
      in
      loop ();
      0
    | Ingest.Shed ->
      let queue = Ingest.create ~cap:opts.queue_cap () in
      let reader = spawn_reader ~follow:opts.follow queue ic in
      let rec loop () =
        match Ingest.pop_batch queue ~max:8192 with
        | [] -> () (* closed and drained *)
        | items ->
          List.iter
            (function
              | Ingest.Ev { event; _ } -> feed_event event
              | Ingest.Shed_op { call; ret } -> feed_shed call ret
              | Ingest.Bad e -> fail e)
            items;
          if round_decided ~depth:(Ingest.depth queue) then Ingest.abandon queue else loop ()
      in
      loop ();
      (* On the normal EOF path the reader has already closed the queue and
         is exiting, so the join is immediate (and re-raises whatever
         stopped it). After an early stop it may still be blocked in a read
         on a FIFO that never ends; [abandon] made its pushes no-ops, and
         the process exits without it. *)
      if not (settled ()) then Domain.join reader;
      Ingest.sheds queue
  in
  sample ();
  let verdict =
    match !bad with
    | Some e -> Monitor.Unsupported (Fmt.str "malformed input: %s" e)
    | None -> Engine.finalize engine
  in
  let ops = Engine.ops engine in
  let sheds = max queue_sheds (Engine.sheds engine) in
  let windows = Engine.windows engine in
  (match metrics with
   | None -> ()
   | Some m ->
     Metrics.add m "monitor.ops" ops;
     Metrics.add m "monitor.sheds" sheds;
     Metrics.add m "monitor.windows" windows;
     Metrics.add m "monitor.resident_peak" !resident_peak);
  { verdict; ops; sheds; windows; resident_peak = !resident_peak }

(* Replay mode: the finite stream is a recording of one or more complete
   histories (a [lineup check --trace] file); group events by their [hist]
   tag — first-appearance order — and monitor each group as an independent
   session, fanned out across domains. Used by the CI equivalence gate to
   check the monitor against the offline verdict on the same histories. *)
let replay ~spec ~opts ?metrics ic =
  let groups : (int option, Event.t list) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let bad = ref None in
  let on_line = function
    | Mevent.Blank | Mevent.Skip -> ()
    | Mevent.Malformed e -> if !bad = None then bad := Some e
    | Mevent.Ev { hist; event } ->
      if not (Hashtbl.mem groups hist) then begin
        order := hist :: !order;
        Hashtbl.add groups hist []
      end;
      Hashtbl.replace groups hist (event :: Hashtbl.find groups hist)
  in
  let r = Mevent.reader ic in
  while Mevent.read r on_line do
    ()
  done;
  match !bad with
  | Some e ->
    let verdict = Monitor.Unsupported (Fmt.str "malformed input: %s" e) in
    ( [],
      { verdict; ops = 0; sheds = 0; windows = 0; resident_peak = 0 } )
  | None ->
    let hists = List.rev !order in
    let session ~cancelled:_ hist =
      let engine =
        Engine.create ~spec ~min_batch:opts.min_batch ~max_window:opts.max_window
      in
      let events = List.rev (Hashtbl.find groups hist) in
      List.iter (Engine.feed engine) events;
      (hist, Engine.finalize engine, Engine.ops engine, Engine.windows engine)
    in
    let results =
      Pool.map_seq ~domains:opts.domains ~f:session (List.to_seq hists)
    in
    let per_hist = List.map (fun (h, v, _, _) -> h, v) results in
    let verdict = combine (List.map (fun (_, v, _, _) -> v) results) in
    let ops = List.fold_left (fun acc (_, _, o, _) -> acc + o) 0 results in
    let windows = List.fold_left (fun acc (_, _, _, w) -> acc + w) 0 results in
    (match metrics with
     | None -> ()
     | Some m ->
       Metrics.add m "monitor.ops" ops;
       Metrics.add m "monitor.windows" windows;
       Metrics.add m "monitor.histories" (List.length results));
    ( per_hist,
      { verdict; ops; sheds = 0; windows; resident_peak = 0 } )
