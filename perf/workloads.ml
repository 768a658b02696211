(* The five workloads: their seeded inputs, the verdict every item must
   reach, and how one item runs — untraced (end-to-end numbers), or traced
   (spans around each layer's public entry point, counters from the same
   boundaries, and the probes that split a check's time by layer). *)

module Check = Lineup.Check
module Adapter = Lineup.Adapter
module Test_matrix = Lineup.Test_matrix
module Harness = Lineup.Harness
module Observation = Lineup.Observation
module Registry = Lineup_conc.Registry
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
module Memory_model = Lineup_runtime.Memory_model
module Invocation = Lineup_history.Invocation
module Event = Lineup_history.Event
module Value = Lineup_value.Value
module Spec = Lineup_spec.Spec
module Monitor = Lineup_spec.Monitor
module Mon = Lineup_monitor
module Server = Lineup_shard.Server

let now = Lineup_observe.Monotonic.now

type check = {
  adapter : Adapter.t;
  test : Test_matrix.t;
  config : Check.config;
  expect : References.t;
}

type stream = {
  spec : Spec.packed;
  path : string;
  accept : bool;  (** the stream is linearizable by construction *)
}

type kind =
  | Check of check  (** [Check.run] in process *)
  | Stream of stream  (** [Driver.run] over an NDJSON file *)
  | Sweep of check * string  (** [Server.run] with two worker processes, in this directory *)

type item = {
  label : string;
  ops : int;  (** operations the verdict covers *)
  kind : kind;
}

(* Everything one run needs after set-up: the items of one pass, and the
   untimed warm-up item. *)
type env = {
  items : item list;
  warmup : item;
}

type workload = {
  name : string;
  setup : seed:int -> smoke:bool -> env;
}

(* ------------------------------------------------------------------ *)
(* Per-layer counters, summed over the traced passes                    *)
(* ------------------------------------------------------------------ *)

type layers = {
  mutable executions : int;
  mutable steps : int;
  mutable choice_points : int;
  mutable sleep_set_skips : int;
  mutable backtrack_points : int;
  mutable flushes : int;
  mutable distinct : int;
  mutable dedup_hits : int;
  mutable witness_probes : int;
  mutable spec_decided : int;
  mutable fallbacks : int;
  mutable probe_executions : int;
  mutable probe_steps : int;
  mutable sweep_phase1_s : float;
  mutable probed_driver_s : float;
  mutable parse_lines : int;
  mutable engine_ops : int;
  mutable windows : int;
  mutable resident_peak : int;
  mutable partitions : int;
  mutable retries : int;
  mutable checkpoint_bytes : int;
}

let layers =
  {
    executions = 0;
    steps = 0;
    choice_points = 0;
    sleep_set_skips = 0;
    backtrack_points = 0;
    flushes = 0;
    distinct = 0;
    dedup_hits = 0;
    witness_probes = 0;
    spec_decided = 0;
    fallbacks = 0;
    probe_executions = 0;
    probe_steps = 0;
    sweep_phase1_s = 0.;
    probed_driver_s = 0.;
    parse_lines = 0;
    engine_ops = 0;
    windows = 0;
    resident_peak = 0;
    partitions = 0;
    retries = 0;
    checkpoint_bytes = 0;
  }

(* A counter of the phase-2 Line-Up checker. The registry carries it twice,
   as [check.phase2.K] and [analyze.lineup.K]; either copy may be retired,
   so read whichever is there. *)
let lineup_counter m k =
  match Metrics.get m ("check.phase2." ^ k) with
  | 0 -> Metrics.get m ("analyze.lineup." ^ k)
  | v -> v

(* The phase-2 counters a check leaves in its metrics registry. *)
let absorb_metrics m =
  let g k = Metrics.get m ("explore.phase2." ^ k) and c = lineup_counter m in
  let l = layers in
  l.executions <- l.executions + g "executions";
  l.steps <- l.steps + g "steps";
  l.choice_points <- l.choice_points + g "choice_points";
  l.sleep_set_skips <- l.sleep_set_skips + g "por.sleep_set_skips";
  l.backtrack_points <- l.backtrack_points + g "por.backtrack_points";
  l.flushes <- l.flushes + g "flushes";
  l.distinct <- l.distinct + c "histories_distinct";
  l.dedup_hits <- l.dedup_hits + c "dedup_hits";
  l.witness_probes <- l.witness_probes + c "witness_probes" + c "stuck_probes";
  l.spec_decided <-
    l.spec_decided + c "membership_monitor" + c "membership_pcomp" + c "membership_direct";
  l.fallbacks <- l.fallbacks + c "membership_fallbacks"

(* ------------------------------------------------------------------ *)
(* Judging verdicts                                                     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  seconds : float;
  ok : bool;
  note : string;  (** why the verdict is wrong, or a short summary *)
  ops : int;
  executions : int;  (** phase-2 executions of a check; 0 otherwise *)
}

let verdict_name = function
  | Check.Pass -> "pass"
  | Check.Fail _ -> "fail"
  | Check.Cancelled -> "cancelled"

let phase2_executions (r : Check.result) =
  match r.Check.phase2 with Some p -> p.Check.stats.Explore.executions | None -> 0

let judge (expect : References.t) (r : Check.result) m =
  let mismatch what want got =
    match want with
    | Some w when w <> got -> Some (Printf.sprintf "%s %d, expected %d" what got w)
    | _ -> None
  in
  let verdict_ok =
    match expect.References.verdict, r.Check.verdict with
    | References.Pass, Check.Pass | References.Fail, Check.Fail _ -> true
    | References.Any, (Check.Pass | Check.Fail _) -> true
    | _ -> false
  in
  let problems =
    (if verdict_ok then [] else [ "verdict " ^ verdict_name r.Check.verdict ])
    @ List.filter_map Fun.id
        [
          mismatch "distinct histories" expect.References.distinct
            (lineup_counter m "histories_distinct");
          mismatch "fingerprint" expect.References.fingerprint
            (lineup_counter m "histories_fingerprint");
          mismatch "executions" expect.References.executions (phase2_executions r);
        ]
  in
  match problems with
  | [] -> true, verdict_name r.Check.verdict
  | ps -> false, String.concat "; " ps

(* ------------------------------------------------------------------ *)
(* Running one item                                                     *)
(* ------------------------------------------------------------------ *)

(* Phase 1 and phase 2 timed separately at the public boundary
   ([synthesize], then [run ~observation]): the same work as one [run]. *)
let traced_check c m =
  Spans.with_span "check" (fun () ->
      match
        Spans.with_span "core.phase1" (fun () ->
            Check.synthesize ~config:c.config ~metrics:m c.adapter c.test)
      with
      | Error (verdict, phase1) ->
        { Check.verdict; observation = Observation.create (); phase1; phase2 = None; analyses = [] }
      | Ok (observation, phase1) ->
        let r =
          Spans.with_span "core.phase2" (fun () ->
              Check.run ~config:c.config ~metrics:m ~observation c.adapter c.test)
        in
        { r with Check.phase1 })

(* The scheduler alone: the check's phase-2 exploration replayed with no
   membership work, stopped after the check's own execution count. *)
let explore_probe c ~executions =
  if executions > 0 then begin
    let n = ref 0 in
    let stats =
      Spans.with_span "scheduler.explore" (fun () ->
          Harness.run_phase c.config.Check.phase2 ~adapter:c.adapter ~test:c.test
            ~on_history:(fun _ ->
              incr n;
              if !n >= executions then `Stop else `Continue))
    in
    layers.probe_executions <- layers.probe_executions + stats.Explore.executions;
    layers.probe_steps <- layers.probe_steps + stats.Explore.total_steps
  end

(* The CLI's driver options with a smaller ingest queue. A full default
   queue (65,536 entries) holds ~10 MB of parsed events, and whether it
   fills depends on which of the two domains the host slows: peak RSS
   moved between 16 and 34 MB from run to run. *)
let monitor_opts = { Mon.Driver.default_opts with Mon.Driver.queue_cap = 4096 }

(* The monitor's layers apart: NDJSON parsing alone, then the engine alone
   on the pre-parsed events. What [Driver.run] spends beyond both is the
   reader/queue hand-off. *)
let stream_probe s =
  let lines = In_channel.with_open_bin s.path In_channel.input_lines in
  let events =
    Spans.with_span "monitor.parse" (fun () ->
        List.filter_map
          (fun l ->
            match Mon.Mevent.parse l with Mon.Mevent.Ev { event; _ } -> Some event | _ -> None)
          lines)
  in
  let opts = monitor_opts in
  let engine =
    Mon.Engine.create ~spec:s.spec ~min_batch:opts.Mon.Driver.min_batch
      ~max_window:opts.Mon.Driver.max_window
  in
  Spans.with_span "monitor.engine" (fun () ->
      List.iter (Mon.Engine.feed engine) events;
      ignore (Mon.Engine.finalize engine));
  layers.parse_lines <- layers.parse_lines + List.length lines;
  layers.engine_ops <- layers.engine_ops + Mon.Engine.ops engine

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let dir_bytes dir =
  match Sys.readdir dir with
  | names -> Array.fold_left (fun acc n -> acc + file_size (Filename.concat dir n)) 0 names
  | exception Sys_error _ -> 0

let shard_stat ~dir key =
  match Json.read_file (Lineup_shard.Store.stats_path ~dir) with
  | j -> ( match Json.member key j with Json.Num f -> int_of_float f | _ -> 0)
  | exception (Sys_error _ | Json.Error _) -> 0

let workers = 2

(* In-process [-j] runs of a sweep's check: [-j 1] and [-j 2] explore the
   same partition set the sweep does, so their ratio is the domain
   speed-up, and [-j 2] is the sweep's independent reference. *)
let j_run c ~domains m =
  let config = { c.config with Check.phase2_domains = Some domains } in
  Check.run ~config ~metrics:m c.adapter c.test

let run_item ~traced item =
  let t0 = now () in
  let finish ?(executions = 0) (ok, note) ops =
    { seconds = now () -. t0; ok; note; ops; executions }
  in
  match item.kind with
  | Check c ->
    let m = Metrics.create () in
    let r =
      if traced then traced_check c m else Check.run ~config:c.config ~metrics:m c.adapter c.test
    in
    let o = finish ~executions:(phase2_executions r) (judge c.expect r m) item.ops in
    if traced then absorb_metrics m;
    o
  | Stream s ->
    let run () =
      let ic = open_in_bin s.path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Mon.Driver.run ~spec:s.spec ~opts:monitor_opts ic)
    in
    let out = if traced then Spans.with_span "monitor.driver" run else run () in
    let want = if !References.corrupt then not s.accept else s.accept in
    let got = out.Mon.Driver.verdict in
    let ok = match got with Monitor.Accept -> want | Monitor.Reject -> not want | _ -> false in
    let note =
      match got with
      | Monitor.Accept -> "accept"
      | Monitor.Reject -> "reject"
      | Monitor.Unsupported r -> "unsupported: " ^ r
    in
    let o = finish (ok, note) out.Mon.Driver.ops in
    if traced then begin
      layers.windows <- layers.windows + out.Mon.Driver.windows;
      layers.resident_peak <- max layers.resident_peak out.Mon.Driver.resident_peak;
      if s.accept then layers.probed_driver_s <- layers.probed_driver_s +. o.seconds
    end;
    o
  | Sweep (c, dir) ->
    let m = Metrics.create () in
    let run () =
      Server.run ~config:c.config ~metrics:m ~local:workers ~dir ~adapter:c.adapter ~test:c.test ()
    in
    let out = if traced then Spans.with_span "shard.server" run else run () in
    let o =
      match out with
      | Server.Report r ->
        if traced then layers.sweep_phase1_s <- layers.sweep_phase1_s +. r.Check.phase1.Check.time;
        finish (judge c.expect r m) item.ops
      | Server.Halted n -> finish (false, Printf.sprintf "halted after %d checkpoints" n) item.ops
      | Server.Failed_run msg -> finish (false, msg) item.ops
    in
    if traced then begin
      absorb_metrics m;
      layers.partitions <- layers.partitions + Metrics.get m "explore.phase2.partitions";
      layers.retries <- layers.retries + shard_stat ~dir "retries";
      layers.checkpoint_bytes <- layers.checkpoint_bytes + dir_bytes (Filename.concat dir "parts")
    end;
    o

(* Run an item, turning an exception into a wrong verdict. *)
let run_item ~traced item =
  let t0 = now () in
  try run_item ~traced item
  with e ->
    {
      seconds = now () -. t0;
      ok = false;
      note = "raised " ^ Printexc.to_string e;
      ops = item.ops;
      executions = 0;
    }

(* The traced run's per-item probes, made after the pass so they stay out
   of its timing. They return extra verdicts to judge: the in-process [-j]
   runs must agree with the sweep's reference. *)
let probe item (o : outcome) =
  match item.kind with
  | Check c ->
    explore_probe c ~executions:o.executions;
    []
  | Stream s ->
    if s.accept then stream_probe s;
    []
  | Sweep (c, _) ->
    List.map
      (fun (name, domains) ->
        let m = Metrics.create () in
        let t0 = now () in
        let r = Spans.with_span name (fun () -> j_run c ~domains m) in
        let ok, note = judge c.expect r m in
        { seconds = now () -. t0; ok; note; ops = item.ops; executions = phase2_executions r })
      [ "parallel.j1", 1; "parallel.j2", 2 ]
