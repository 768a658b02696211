(* Parallel scaling of the domain fan-out (-j).

   The paper's evaluation spent ~11 CPU-days because every Check(X, m) is an
   independent from-scratch re-execution; §4.3 notes the workload is
   embarrassingly parallel. This section runs the same deterministic
   RandomCheck workload at j ∈ {1, 2, 4, 8} and reports wall-clock speedup
   and parallel efficiency, then verifies the headline determinism claim:
   the j = 1 and j = 4 reports render byte-identically. *)

open Bench_common
module Conc = Lineup_conc
module Pool = Lineup_parallel.Pool
module Metrics = Lineup_observe.Metrics
module Monotonic = Lineup_observe.Monotonic
open Lineup

(* A stable rendering of a whole RandomCheck report: per-sample verdicts
   plus the full rendering of the first failure, if any. Wall-clock-free, so
   identical runs render identically. *)
let render_report (adapter : Adapter.t) (r : Random_check.report) =
  let verdicts =
    List.map
      (fun (o : Random_check.test_outcome) -> Report.summary o.result)
      r.outcomes
  in
  let first =
    match r.first_failure with
    | None -> "no failure"
    | Some o -> Report.check_result_to_string ~adapter ~test:o.test o.result
  in
  Fmt.str "%d/%d passed@.%a@.%s@." r.passed (r.passed + r.failed)
    Fmt.(list ~sep:cut string)
    verdicts first

let run opts =
  hr "Parallel scaling: domain fan-out of Check jobs (-j)";
  let adapter = Conc.Concurrent_queue.correct in
  let samples = max 8 opts.samples in
  Fmt.pr
    "workload: RandomCheck %s, %d samples of %dx%d, phase-2 cap %d, seed %d@.\
     host: %d recommended domain(s)@.@."
    adapter.Adapter.name samples opts.rows opts.cols opts.cap opts.seed
    (Pool.default_domains ());
  let config = check_config opts in
  let sample j =
    let t0 = Monotonic.now () in
    let report =
      Random_check.run ~config ?metrics:(bench_metrics ()) ~domains:j ~seed:opts.seed ~samples
        ~draw:(random_draw adapter ~rows:opts.rows ~cols:opts.cols)
        adapter
    in
    report, Monotonic.elapsed_since t0
  in
  Fmt.pr "%4s %10s %10s %12s %s@." "j" "wall (s)" "speedup" "efficiency" "verdicts";
  Fmt.pr "%s@." (String.make 60 '-');
  let base = ref None in
  let reports =
    List.map
      (fun j ->
        let report, dt = sample j in
        let b = match !base with None -> base := Some dt; dt | Some b -> b in
        Fmt.pr "%4d %10.2f %9.2fx %11.0f%% %d/%d passed@." j dt (b /. dt)
          (b /. dt /. float_of_int j *. 100.)
          report.Random_check.passed
          (report.Random_check.passed + report.Random_check.failed);
        j, report)
      [ 1; 2; 4; 8 ]
  in
  let render j = render_report adapter (List.assoc j reports) in
  Fmt.pr "@.deterministic across -j: j=1 and j=4 reports byte-identical: %b@."
    (String.equal (render 1) (render 4));
  Fmt.pr
    "(speedup is bounded by the physical core count; on a 1-core container every j measures \
     ~1.0x plus domain overhead)@.";

  (* ---- intra-check scaling: one Check, phase 2 partitioned ---- *)
  hr "Parallel scaling: intra-check frontier splitting (check -j)";
  let test =
    Test_matrix.make
      [
        [ inv_int "Enqueue" 200; inv_int "Enqueue" 400; inv "TryDequeue" ];
        [ inv "TryDequeue"; inv_int "Enqueue" 600 ];
        [ inv "TryDequeue" ];
      ]
  in
  Fmt.pr
    "workload: one Check of %s on a 3-thread matrix, frontier depth %d@.\
     (the j=1..8 runs explore the identical partition set; speedup is how much@.\
     \ wall-clock the fan-out recovers, bounded by the host's %d domain(s))@.@."
    adapter.Adapter.name Check.default_config.Check.phase2_frontier_depth
    (Pool.default_domains ());
  let check_sample j =
    let config =
      { (check_config opts) with Check.phase2_domains = Some j }
    in
    let m = Metrics.create () in
    let t0 = Monotonic.now () in
    let r = Check.run ~config ~metrics:m adapter test in
    let dt = Monotonic.elapsed_since t0 in
    Option.iter (fun into -> Metrics.merge_into ~into m) (bench_metrics ());
    r, m, dt
  in
  Fmt.pr "%4s %10s %10s %12s %s@." "j" "wall (s)" "speedup" "efficiency" "phase 2";
  Fmt.pr "%s@." (String.make 72 '-');
  let base = ref None in
  let runs =
    List.map
      (fun j ->
        let r, m, dt = check_sample j in
        let b = match !base with None -> base := Some dt; dt | Some b -> b in
        let p2 =
          match r.Check.phase2 with
          | Some p ->
            Fmt.str "%d executions over %d partitions" p.Check.stats.Explore.executions
              (Metrics.get m "explore.phase2.partitions")
          | None -> "not run"
        in
        Fmt.pr "%4d %10.2f %9.2fx %11.0f%% %s@." j dt (b /. dt)
          (b /. dt /. float_of_int j *. 100.) p2;
        j, (r, m))
      [ 1; 2; 4; 8 ]
  in
  let stable j =
    let r, m = List.assoc j runs in
    Report.check_result_to_string ~adapter ~test r ^ "\n" ^ Metrics.to_json m
  in
  Fmt.pr "@.deterministic across check -j: j=1 and j=4 report+metrics byte-identical: %b@."
    (String.equal (stable 1) (stable 4))
