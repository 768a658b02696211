module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
module Trace = Lineup_observe.Trace
module Pool = Lineup_parallel.Pool

type report = {
  packs : Analyzer.packed list;
  stats : Explore.stats;
  interrupted : bool;
}

type partition = {
  pt_index : int;
  pt_stats : Explore.stats;
  pt_packs : Analyzer.packed list;
  pt_all_done : bool;
  pt_interrupted : bool;
}

let add_explore_stats m ~prefix (s : Explore.stats) =
  let c k v = Metrics.add m (Fmt.str "explore.%s.%s" prefix k) v in
  c "executions" s.Explore.executions;
  c "steps" s.Explore.total_steps;
  c "deadlocks" s.Explore.deadlocks;
  c "divergences" s.Explore.divergences;
  c "serial_stucks" s.Explore.serial_stucks;
  c "pruned_choices" s.Explore.pruned_choices;
  c "preemptions" s.Explore.preemptions_spent;
  c "yields" s.Explore.yields;
  (* Conditional: SC explorations never flush, and their metrics files must
     stay byte-identical to the pre-weak-memory output. *)
  if s.Explore.flushes > 0 then c "flushes" s.Explore.flushes;
  c "choice_points" s.Explore.choice_points;
  c "por.sleep_set_skips" s.Explore.sleep_set_skips;
  c "por.backtrack_points" s.Explore.backtrack_points;
  c "incomplete" (if s.Explore.complete then 0 else 1)

let add_analyzer_metrics m pack =
  let (Analyzer.Packed ((module A), _)) = pack in
  List.iter (fun (k, v) -> Metrics.add m (Fmt.str "analyze.%s.%s" A.name k) v)
    (Analyzer.metrics pack)

let never_cancelled () = false
let stopped p = p.pt_all_done || p.pt_interrupted

(* The warm-up runs on the calling domain and steps no analyzer: each
   warm-up execution is re-executed as the leftmost leaf of its partition,
   where it is consumed in canonical order. *)
let frontier ?(cancelled = never_cancelled) config ~depth ~adapter ~test =
  let interrupted = ref false in
  let frontier =
    Harness.split_phase config ~depth ~adapter ~test ~on_history:(fun _ ->
        if cancelled () then begin
          interrupted := true;
          `Stop
        end
        else `Continue)
  in
  (frontier, !interrupted)

(* One partition job: fresh analyzer states, a done-latch per analyzer (a
   done analyzer is never stepped again; the partition stops once every
   latch is set). The job wraps its exploration in [with_logging] because
   the flag is domain-local. *)
let run_partition ?(cancelled = never_cancelled) config ~analyzers ~adapter ~test ~index ~prefix =
  let t0 = Lineup_observe.Monotonic.now () in
  let packs = Array.of_list (List.map Analyzer.fresh analyzers) in
  let done_ = Array.make (Array.length packs) false in
  let all_done () = Array.for_all Fun.id done_ in
  let interrupted = ref false in
  let log = List.exists Analyzer.needs_log analyzers in
  let stats =
    Harness.run_phase_from ~log config ~prefix ~adapter ~test ~on_history:(fun r ->
        if cancelled () then begin
          interrupted := true;
          `Stop
        end
        else begin
          Array.iteri
            (fun i p ->
              if not done_.(i) then
                match Analyzer.step p r with `Done -> done_.(i) <- true | `Continue -> ())
            packs;
          if all_done () then `Stop else `Continue
        end)
  in
  if Trace.enabled () then
    Trace.emit "pipeline.partition"
      [
        "index", Trace.Int index;
        "executions", Trace.Int stats.Explore.executions;
        "dt", Trace.Float (Lineup_observe.Monotonic.now () -. t0);
      ];
  {
    pt_index = index;
    pt_stats = stats;
    pt_packs = Array.to_list packs;
    pt_all_done = all_done ();
    pt_interrupted = !interrupted;
  }

(* Determinism: the kept partitions are the contiguous frontier prefix up
   to the earliest stopping one — [Pool.map_seq]'s rule, re-applied here so
   that checkpoints gathered in any order, or past an early stop, merge
   like an in-process run — and analyzer states fold in frontier order. So
   the report and metrics are a function of the frontier alone. *)
let merge ?metrics ~warmup_interrupted ~analyzers (frontier : Explore.frontier) partitions =
  let sorted = List.sort (fun a b -> Int.compare a.pt_index b.pt_index) partitions in
  let cut =
    List.fold_left
      (fun acc p -> if stopped p && p.pt_index < acc then p.pt_index else acc)
      max_int sorted
  in
  let kept = if warmup_interrupted then [] else List.filter (fun p -> p.pt_index <= cut) sorted in
  let packs =
    match kept with
    | [] -> List.map Analyzer.fresh analyzers
    | p0 :: rest ->
      List.fold_left (fun acc p -> List.map2 Analyzer.merge acc p.pt_packs) p0.pt_packs rest
  in
  let stats =
    List.fold_left (fun acc p -> Explore.merge_stats acc p.pt_stats) frontier.Explore.warmup kept
  in
  (match metrics with
   | Some m ->
     let c k v = Metrics.add m ("explore.phase2." ^ k) v in
     add_explore_stats m ~prefix:"phase2" frontier.Explore.warmup;
     c "partitions" (List.length frontier.Explore.prefixes);
     c "warmup_executions" frontier.Explore.warmup.Explore.executions;
     List.iter
       (fun p ->
         add_explore_stats m ~prefix:"phase2" p.pt_stats;
         c (Fmt.str "partition.%03d.executions" p.pt_index) p.pt_stats.Explore.executions)
       kept;
     List.iter (add_analyzer_metrics m) packs
   | None -> ());
  {
    packs;
    stats;
    interrupted = warmup_interrupted || List.exists (fun p -> p.pt_interrupted) kept;
  }

let run ?domains ?(frontier_depth = 4) ?(cancelled = never_cancelled) ?metrics config
    ~analyzers ~adapter ~test () =
  if analyzers = [] then invalid_arg "Pipeline.run: no analyzers attached";
  let depth = match domains with None -> 0 | Some _ -> frontier_depth in
  let frontier, warmup_interrupted = frontier ~cancelled config ~depth ~adapter ~test in
  let partitions =
    if warmup_interrupted then []
    else
      Pool.map_seq ?domains ~stop:stopped
        ~f:(fun ~cancelled:pool_cancelled (index, prefix) ->
          run_partition
            ~cancelled:(fun () -> pool_cancelled () || cancelled ())
            config ~analyzers ~adapter ~test ~index ~prefix)
        (List.to_seq (List.mapi (fun i prefix -> i, prefix) frontier.Explore.prefixes))
  in
  merge ?metrics ~warmup_interrupted ~analyzers frontier partitions
