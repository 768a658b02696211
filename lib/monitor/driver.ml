module Monitor = Lineup_spec.Monitor
module Event = Lineup_history.Event
module Pool = Lineup_parallel.Pool
module Metrics = Lineup_observe.Metrics
module Trace = Lineup_observe.Trace
module Trace_event = Lineup_history.Trace_event

(* The streaming driver. The calling domain reads the stream a chunk at a
   time, scans each line once ({!Trace_event.read}) and feeds one engine,
   looking for a verdict after every chunk. A producer that outruns the
   engine waits on its pipe; nothing is dropped, so a verdict covers every
   operation of the stream.

   For keyed classes (set, dictionary) the engine already checks each key as
   its own object (P-compositionality, {!Lineup_spec.Kmon}); splitting the
   stream by key across domains only added a domain spawn per round and let
   a corrupt stream pass (EXPERIMENTS.md, "Retiring live monitor
   sharding"). [domains] fans out {!replay}'s independent histories.

   There is no reader domain: one only helped while it had somewhere to put
   its lead, and a reader that outran the engine kept a queue full of parsed
   events, so peak RSS rose by a quarter (DESIGN.md §6). *)

type opts = {
  domains : int;
  min_batch : int;
  max_window : int;
  queue_cap : int;
  report_every : int;
  follow : bool;
}

let default_opts =
  {
    domains = 1;
    min_batch = Engine.default_min_batch;
    max_window = Engine.default_max_window;
    queue_cap = 65536;
    report_every = 0;
    follow = false;
  }

type outcome = {
  verdict : Monitor.verdict;
  ops : int;
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

(* [resident_peak] samples the engine after every [sample_every]-th fed
   event and at the end of the stream, until a verdict settles. The samples
   fall at the same events whatever the reads, so the peak depends on the
   stream alone: not on timing, on file or pipe input, or on [domains]. *)
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
  let fail e = if !bad = None then bad := Some e in
  let on_line = function
    | Trace_event.Ev { event; _ } -> (
      match !bad with
      | Some _ -> ()
      | None ->
        Engine.feed engine event;
        incr fed;
        if !fed mod sample_every = 0 then sample ())
    | Trace_event.Malformed e -> fail e
    | Trace_event.Blank | Trace_event.Skip -> ()
  in
  (* After every read: report progress, and say whether the verdict is
     decided. *)
  let decided () =
    if !fed >= !next_report then begin
      next_report := !fed + opts.report_every;
      let resident = Engine.resident engine in
      Trace.emit "monitor.tick" [ "ops", Trace.Int !fed; "resident", Trace.Int resident ];
      Fmt.epr "monitor: %d events, resident %d@." !fed resident
    end;
    settled ()
  in
  let r = Trace_event.reader ic in
  (* whether the engine was flushed since the last input *)
  let paused = ref false in
  let rec loop () =
    match Trace_event.read r on_line with
    | exception Sys_error e -> fail e
    | true ->
      paused := false;
      if not (decided ()) then loop ()
    | false when opts.follow ->
      (* --follow: an end of input only means that the file has not grown
         yet, or that every current writer of a FIFO closed. Wait and read
         on; a line cut at the end waits in the reader for its rest. A
         followed stream ends by verdict, never by end of input, so once
         per pause the engine checks what it holds: a producer that paused
         after a violation hears of it now, not after [min_batch] more
         operations. *)
      if not !paused then begin
        paused := true;
        if !bad = None then begin
          sample ();
          Engine.flush engine
        end
      end;
      if not (decided ()) then begin
        Unix.sleepf 0.05;
        loop ()
      end
    | false ->
      Trace_event.finish r on_line;
      ignore (decided ())
  in
  loop ();
  sample ();
  let verdict =
    match !bad with
    | Some e -> Monitor.Unsupported (Fmt.str "malformed input: %s" e)
    | None -> Engine.finalize engine
  in
  let ops = Engine.ops engine in
  let windows = Engine.windows engine in
  (match metrics with
   | None -> ()
   | Some m ->
     Metrics.add m "monitor.ops" ops;
     Metrics.add m "monitor.windows" windows;
     Metrics.add m "monitor.resident_peak" !resident_peak);
  { verdict; ops; windows; resident_peak = !resident_peak }

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
    | Trace_event.Blank | Trace_event.Skip -> ()
    | Trace_event.Malformed e -> if !bad = None then bad := Some e
    | Trace_event.Ev { hist; event } ->
      if not (Hashtbl.mem groups hist) then begin
        order := hist :: !order;
        Hashtbl.add groups hist []
      end;
      Hashtbl.replace groups hist (event :: Hashtbl.find groups hist)
  in
  let r = Trace_event.reader ic in
  while Trace_event.read r on_line do
    ()
  done;
  Trace_event.finish r on_line;
  match !bad with
  | Some e ->
    let verdict = Monitor.Unsupported (Fmt.str "malformed input: %s" e) in
    [], { verdict; ops = 0; windows = 0; resident_peak = 0 }
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
    per_hist, { verdict; ops; windows; resident_peak = 0 }
