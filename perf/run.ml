(* One benchmark run of one workload: set up several times, then measure
   whole passes over the workload's items until the time is up, judge every
   verdict, and print the metrics. An untraced run reports the end-to-end
   metrics; a traced run reports the per-layer ones. *)

open Workloads

let setup_reps = 5

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec find () =
      match input_line ic with
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
      | _ -> find ()
      | exception End_of_file -> 0.
    in
    let v = find () in
    close_in ic;
    v

type metric = {
  name : string;
  unit : string;
  value : float;
}

let m name unit value = { name; unit; value }

(* ------------------------------------------------------------------ *)
(* Metric definitions                                                   *)
(* ------------------------------------------------------------------ *)

(* [passes] holds (wall, operations) per pass; [verdicts] each check's
   time to verdict, the median of its measurements over the passes, so the
   percentiles are across checks and one slow pass cannot make them. Times
   and rates are in reference-host units ([Host]). *)
let end_to_end ~setup_s ~passes ~verdicts =
  let k = Host.factor () in
  [
    m "setup_s" "s" (k *. setup_s);
    m "wall_s" "s" (k *. Stats.median (List.map fst passes));
    m "verdict_p50_s" "s" (k *. Stats.percentile 0.5 verdicts);
    m "verdict_p95_s" "s" (k *. Stats.percentile 0.95 verdicts);
    m "ops_per_s" "1/s"
      (Stats.median (List.map (fun (wall, ops) -> float ops /. wall) passes) /. k);
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

let per_layer ~passes ~overhead =
  let l = layers in
  let r a b = Stats.ratio a b in
  let rate a b = Stats.ratio a b /. Host.factor () in
  let f = float in
  let per n = f n /. f (max 1 passes) in
  let total = Spans.total in
  let check_s = total "check" and sweep_s = total "shard.server" in
  let explore = total "scheduler.explore" in
  let parse = total "monitor.parse" and engine = total "monitor.engine" in
  let driver = l.probed_driver_s in
  let j2 = total "parallel.j2" in
  [
    m "core.phase1_share" "share"
      (r (total "core.phase1" +. l.sweep_phase1_s) (check_s +. sweep_s));
    m "core.decide_share" "share" (r (total "core.phase2" -. explore) check_s);
    m "core.dedup_hit_ratio" "share" (r (f l.dedup_hits) (f (l.dedup_hits + l.distinct)));
    m "core.histories_distinct" "count" (per l.distinct);
    m "core.witness_probes" "count" (per l.witness_probes);
    m "spec.monitor_share" "share" (r (f l.spec_decided) (f l.distinct));
    m "spec.fallbacks" "count" (per l.fallbacks);
    m "scheduler.explore_share" "share" (r explore check_s);
    m "scheduler.executions" "count" (per l.executions);
    m "scheduler.steps" "count" (per l.steps);
    m "scheduler.choice_points" "count" (per l.choice_points);
    m "scheduler.executions_per_s" "1/s" (rate (f l.probe_executions) explore);
    m "scheduler.steps_per_s" "1/s" (rate (f l.probe_steps) explore);
    m "scheduler.steps_per_execution" "count" (r (f l.steps) (f l.executions));
    m "scheduler.sleep_set_skips" "count" (per l.sleep_set_skips);
    m "scheduler.backtrack_points" "count" (per l.backtrack_points);
    m "scheduler.flushes" "count" (per l.flushes);
    m "scheduler.flush_share" "share" (r (f l.flushes) (f l.steps));
    m "monitor.parse_share" "share" (r parse driver);
    m "monitor.engine_share" "share" (r engine driver);
    m "monitor.handoff_share" "share" (r (driver -. parse -. engine) driver);
    m "monitor.parse_lines_per_s" "1/s" (rate (f l.parse_lines) parse);
    m "monitor.engine_ops_per_s" "1/s" (rate (f l.engine_ops) engine);
    m "monitor.windows" "count" (per l.windows);
    m "monitor.resident_peak" "count" (f l.resident_peak);
    m "parallel.speedup" "x" (r (total "parallel.j1") j2);
    m "shard.overhead_share" "share" (r (sweep_s -. j2) sweep_s);
    m "shard.partitions" "count" (per l.partitions);
    m "shard.retries" "count" (per l.retries);
    m "shard.checkpoint_bytes" "bytes" (per l.checkpoint_bytes);
    m "trace.overhead" "share" overhead;
  ]

(* ------------------------------------------------------------------ *)
(* The run                                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_json r =
  Json.to_string_compact
    (Json.Obj
       [
         "correct", Json.Bool r.correct;
         "attempted", Json.Num (float r.attempted);
         "failed", Json.Num (float r.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x -> x.name, Json.Obj [ "value", Json.Num x.value; "unit", Json.Str x.unit ])
                r.metrics) );
       ])

let run ~(workload : workload) ~seed ~seconds ~trace ~smoke =
  let attempted = ref 0 and failed = ref 0 in
  let judge item (o : outcome) =
    incr attempted;
    if not o.ok then begin
      incr failed;
      Printf.eprintf "WRONG %s: %s\n%!" item.label o.note
    end
  in
  Host.start ();
  let setups =
    List.init (if smoke then 1 else setup_reps) (fun _ ->
        let t0 = now () in
        let env = workload.setup ~seed ~smoke in
        judge env.warmup (run_item ~traced:false env.warmup);
        now () -. t0, env)
  in
  let env = snd (List.nth setups (List.length setups - 1)) in
  let times = Array.make (List.length env.items) [] in
  let pass_stats = ref [] and traced_walls = ref [] in
  let passes = ref 0 in
  let start = now () in
  let last = ref 0. in
  (* A pass that would end after [seconds] is not started, so a run
     measures whole passes for at most [seconds] (one pass at least). *)
  while !passes = 0 || now () -. start +. !last <= seconds do
    let t0 = now () in
    (* host-speed samples between items stay out of the pass times *)
    let untraced () =
      let t0 = now () and paused = ref 0. in
      let ops = ref 0 in
      List.iteri
        (fun i item ->
          let o = run_item ~traced:false item in
          judge item o;
          times.(i) <- o.seconds :: times.(i);
          ops := !ops + o.ops;
          paused := !paused +. Host.maybe_sample ())
        env.items;
      pass_stats := (now () -. t0 -. !paused, !ops) :: !pass_stats
    in
    (* A traced run also runs each pass traced; the two copies take turns
       going first, so neither pays the heap growth of the first pass. *)
    let traced () =
      Spans.enabled := true;
      let t1 = now () and paused = ref 0. in
      let outs =
        Spans.with_span "pass" (fun () ->
            List.map
              (fun item ->
                let o = run_item ~traced:true item in
                judge item o;
                paused := !paused +. Host.maybe_sample ();
                item, o)
              env.items)
      in
      traced_walls := (now () -. t1 -. !paused) :: !traced_walls;
      Spans.enabled := false;
      outs
    in
    let outs =
      if not trace then (
        untraced ();
        [])
      else if !passes mod 2 = 0 then (
        untraced ();
        traced ())
      else
        let outs = traced () in
        untraced ();
        outs
    in
    Spans.enabled := trace;
    Spans.with_span "probe" (fun () ->
        List.iter (fun (item, o) -> List.iter (judge item) (probe item o)) outs);
    Spans.enabled := false;
    last := now () -. t0;
    incr passes
  done;
  let pass_walls = List.rev_map fst !pass_stats in
  let metrics =
    if trace then
      let overhead = (Stats.sum !traced_walls /. Stats.sum pass_walls) -. 1. in
      per_layer ~passes:!passes ~overhead
    else
      end_to_end ~setup_s:(Stats.median (List.map fst setups)) ~passes:!pass_stats
        ~verdicts:(Array.to_list (Array.map Stats.median times))
  in
  if trace then begin
    incr attempted;
    if not (Spans.properly_nested ()) then begin
      incr failed;
      prerr_endline "WRONG trace: spans are not properly nested"
    end
  end;
  Printf.eprintf "%s seed %d: %d passes of %d items in %.2fs, %d wrong\n  pass walls:" workload.name
    seed !passes (Array.length times) (now () -. start) !failed;
  List.iter (Printf.eprintf " %.4f") pass_walls;
  Printf.eprintf " (raw)\n  host: kernel median %.5fs over %d samples, times scaled by %.4f\n"
    (Stats.median !Host.samples) (List.length !Host.samples) (Host.factor ());
  List.iter (fun x -> Printf.eprintf "  %-32s %14.6g %s\n" x.name x.value x.unit) metrics;
  if trace then begin
    Printf.eprintf "  %-24s %10s %10s %7s\n" "span" "total s" "self s" "count";
    List.iter
      (fun (name, (tot, self, n)) -> Printf.eprintf "  %-24s %10.4f %10.4f %7d\n" name tot self n)
      (Spans.self_times ())
  end;
  flush stderr;
  { correct = !failed = 0; attempted = !attempted; failed = !failed; metrics }
