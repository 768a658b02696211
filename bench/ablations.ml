(* Ablations for the design choices the paper discusses in §4.3 and §5.4:
   the preemption bound, random sampling vs systematic search, and the cost
   of phase 1 as the matrix grows. *)

open Bench_common
module Conc = Lineup_conc
module Explore = Lineup_scheduler.Explore
open Lineup

(* §4.3: "we found it necessary to use the preemption bounding heuristic".
   Sweep PB = 0..3 over the failing entries with their regression tests:
   executions explored and whether the bug is found. *)
let pb_sweep opts =
  hr "Ablation: preemption-bound sweep (§4.3)";
  Fmt.pr "%-50s |" "Defect";
  List.iter (fun pb -> Fmt.pr " %16s |" (Fmt.str "PB=%d" pb)) [ 0; 1; 2; 3 ];
  Fmt.pr "@.%s@." (String.make 130 '-');
  (* The point of the sweep is exhaustion *at each bound*: the CI-scale
     phase-2 cap would turn slow-to-find defects (the CAS typo needs ~2800
     executions at PB=2 since return markers became scheduling points) into
     spurious misses, so the sweep keeps a floor of its own. *)
  let cap = max opts.cap 20_000 in
  List.iter
    (fun (_, (e : Conc.Registry.entry)) ->
      let name = e.adapter.Adapter.name in
      Fmt.pr "%-50s |" name;
      List.iter
        (fun pb ->
          let config =
            Check.config_with ~preemption_bound:(Some pb) ~max_executions:(Some cap) ()
          in
          let r = Check.run ~config e.adapter (Option.get e.regression) in
          let execs, complete =
            match r.Check.phase2 with
            | Some p -> p.Check.stats.Explore.executions, p.Check.stats.Explore.complete
            | None -> 0, true
          in
          (* a pass that stopped at the cap has not shown the defect absent *)
          let verdict =
            if not (Check.passed r) then "FOUND" else if complete then "miss" else "cut"
          in
          Fmt.pr " %5s in %6d e |" verdict execs)
        [ 0; 1; 2; 3 ];
      Fmt.pr "@.")
    Conc.Registry.failing_entries;
  Fmt.pr
    "@.Shape to expect: every seeded defect is found at PB=2 (the paper's default); several \
     need at least one preemption, and exploration cost grows with the bound. \"cut\" is a \
     pass that stopped at the execution cap; \"miss\" one that explored every schedule.@."

(* §4.3: random sampling efficiency — the fraction of random tests that
   expose each defect, by dimension. *)
let sampling opts =
  hr "Ablation: random-sampling efficiency (§4.3)";
  let dims = [ 2, 2; 3, 2; 3, 3 ] in
  Fmt.pr "%-50s |" "Defect";
  List.iter (fun (r, c) -> Fmt.pr " %8s |" (Fmt.str "%dx%d" r c)) dims;
  Fmt.pr "  (failing fraction of %d random tests)@." opts.samples;
  Fmt.pr "%s@." (String.make 100 '-');
  List.iter
    (fun (id, (e : Conc.Registry.entry)) ->
      ignore id;
      Fmt.pr "%-50s |" e.adapter.Adapter.name;
      List.iter
        (fun (rows, cols) ->
          let report =
            Random_check.run ~config:(check_config opts) ~seed:opts.seed ~samples:opts.samples
              ~draw:(random_draw e.adapter ~rows ~cols)
              e.adapter
          in
          Fmt.pr " %4d/%-3d |" report.Random_check.failed
            (List.length report.Random_check.outcomes))
        dims;
      Fmt.pr "@.")
    Conc.Registry.failing_entries

(* Systematic DFS vs random-walk stress scheduling: executions until the
   first violating history of the Fig. 1 test is produced. *)
let systematic_vs_stress opts =
  hr "Ablation: systematic exploration vs random-walk stress testing";
  let e = Conc.Registry.find "ConcurrentQueue (Pre: timed lock in TryDequeue)" in
  let test =
    Test_matrix.make
      [ [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]; [ inv "TryDequeue"; inv "TryDequeue" ] ]
  in
  (* Build the observation set once (phase 1). *)
  let r0 = Check.run ~config:(check_config opts) e.adapter test in
  let obs = r0.Check.observation in
  let count_until_violation run_phase =
    let execs = ref 0 in
    let found = ref false in
    let on_history (h : Harness.run_result) =
      incr execs;
      if not (observed obs h.history) then begin
        found := true;
        `Stop
      end
      else `Continue
    in
    ignore (run_phase on_history);
    !found, !execs
  in
  let dfs_found, dfs_execs =
    count_until_violation (fun on_history ->
        Harness.run_phase
          { Explore.default_config with Explore.max_executions = Some opts.cap }
          ~adapter:e.adapter ~test ~on_history)
  in
  Fmt.pr "systematic DFS (PB=2):        %s after %d executions@."
    (if dfs_found then "violation" else "nothing")
    dfs_execs;
  List.iter
    (fun seed ->
      let rw_found, rw_execs =
        count_until_violation (fun on_history ->
            Harness.run_phase_random Explore.default_config
              ~rng:(Random.State.make [| seed |])
              ~executions:opts.cap ~adapter:e.adapter ~test ~on_history)
      in
      Fmt.pr "random walk (seed %3d):       %s after %d executions@." seed
        (if rw_found then "violation" else "nothing")
        rw_execs)
    [ 1; 2; 3 ];
  Fmt.pr
    "@.Both find this bug; the systematic explorer does so deterministically and can prove \
     exhaustion, which stress testing cannot (\"simple runtime monitoring is not \
     sufficient\", §4).@."

(* §5.4: phase-1 cost by matrix dimension. The combinatorial ceiling for
   p×q is (pq)!/(p!)^q: 3×3 gives 1680, the figure the paper quotes. *)
let phase1_cost _opts =
  hr "Ablation: phase-1 serial enumeration cost by dimension (§5.4)";
  let adapter = Conc.Concurrent_queue.correct in
  Fmt.pr "%6s %12s %12s %10s@." "dims" "histories" "ceiling" "time";
  Fmt.pr "%s@." (String.make 50 '-');
  let fact n = List.fold_left ( * ) 1 (List.init n (fun i -> i + 1)) in
  let rec ipow b n = if n = 0 then 1 else b * ipow b (n - 1) in
  let ceiling rows cols = fact (rows * cols) / ipow (fact rows) cols in
  List.iter
    (fun (rows, cols) ->
      let u = Array.of_list adapter.Adapter.universe in
      let columns =
        List.init cols (fun c -> List.init rows (fun r -> u.(((c * rows) + r) mod Array.length u)))
      in
      let test = Test_matrix.make columns in
      let t0 = Unix.gettimeofday () in
      let r =
        Check.run
          ~config:{ Check.default_config with Check.phase2 = { Explore.serial_config with Explore.max_executions = Some 0 } }
          adapter test
      in
      let dt = Unix.gettimeofday () -. t0 in
      Fmt.pr "%6s %12d %12d %9.3fs@."
        (Fmt.str "%dx%d" rows cols)
        r.Check.phase1.Check.histories (ceiling rows cols) dt)
    [ 1, 1; 2, 1; 1, 2; 2, 2; 3, 2; 2, 3; 3, 3 ];
  Fmt.pr
    "@.The 3x3 ceiling of 1680 serial interleavings matches §5.5's \"combinatorial number of \
     full histories for 3x3 matrices, which is 1680\"; the enumeration is cheap — the key \
     fact the Line-Up algorithm exploits (§5.4).@."


(* Iterative context bounding: the bound at which each defect is first
   found, searching PB=0, then 1, ... as CHESS does. *)
let icb opts =
  hr "Ablation: iterative context bounding (found-at bound)";
  Fmt.pr "%-50s %10s %12s@." "Defect" "bound" "executions";
  Fmt.pr "%s@." (String.make 80 '-');
  List.iter
    (fun (_, (e : Conc.Registry.entry)) ->
      let name = e.adapter.Adapter.name and test = Option.get e.regression in
      (* phase 1 once *)
      match Check.synthesize e.adapter test with
      | Error _ -> Fmt.pr "%-50s %10s %12s@." name "p1" "-"
      | Ok (obs, _) ->
        let execs = ref 0 in
        let found_at = ref None in
        let complete = ref true in
        (* Same exhaustion floor as the PB sweep: the point is the bound at
           which the defect surfaces, not whether it beats the CI cap. *)
        let cap = max opts.cap 20_000 in
        let rec try_bound b =
          if b > 3 || Option.is_some !found_at then ()
          else begin
            let config =
              {
                Explore.default_config with
                Explore.preemption_bound = Some b;
                max_executions = Some cap;
              }
            in
            let stats =
              Harness.run_phase config ~adapter:e.adapter ~test ~on_history:(fun h ->
                  incr execs;
                  if not (observed obs h.history) then begin
                    found_at := Some b;
                    `Stop
                  end
                  else `Continue)
            in
            complete := stats.Explore.complete;
            try_bound (b + 1)
          end
        in
        try_bound 0;
        (match !found_at with
         | Some b -> Fmt.pr "%-50s %10d %12d@." name b !execs
         | None ->
           Fmt.pr "%-50s %10s %12d@." name (if !complete then "miss" else "cut") !execs))
    Conc.Registry.failing_entries;
  Fmt.pr
    "@.Most defects surface at bound 1 — the small-bound hypothesis behind CHESS's iterative \
     search order. \"cut\": bound 3 stopped at the execution cap without finding the defect.@."

(* The history-dedup optimization in phase 2. *)
let dedup opts =
  hr "Ablation: phase-2 history deduplication";
  let e = Conc.Registry.find "ConcurrentBag" in
  let rng = Random.State.make [| opts.seed |] in
  let test =
    Test_matrix.random ~rng ~invocations:e.adapter.Adapter.universe ~rows:3 ~cols:3 ()
  in
  (* a deeper phase 2 shows the effect: duplicates dominate as the explored
     space grows *)
  let cap = max opts.cap 8_000 in
  List.iter
    (fun dedup_histories ->
      let config =
        { (Check.config_with ~max_executions:(Some cap) ()) with Check.dedup_histories }
      in
      let t0 = Unix.gettimeofday () in
      let r = Check.run ~config e.adapter test in
      let dt = Unix.gettimeofday () -. t0 in
      Fmt.pr "dedup=%-5b  %-40s %.2fs@." dedup_histories (Report.summary r) dt)
    [ true; false ];
  Fmt.pr
    "@.Schedules frequently replay identical histories; checking each distinct history once \
     is sound (the verdict is a function of the history) and much cheaper.@.";
  (* Metrics-derived dedup hit rate per class: phase-2 histories that were
     skipped because an identical one had already been checked, as a share
     of all histories seen. The counters come straight from the
     observability layer, so the same numbers appear in any --metrics
     summary. *)
  Fmt.pr "@.dedup hit rate by class (one random %dx%d test each, cap %d):@.@." 3 3 cap;
  Fmt.pr "%-50s %9s %9s %9s@." "Class" "distinct" "dup hits" "hit rate";
  Fmt.pr "%s@." (String.make 80 '-');
  List.iter
    (fun name ->
      let e = Conc.Registry.find name in
      let rng = Random.State.make [| opts.seed |] in
      let test =
        Test_matrix.random ~rng ~invocations:e.adapter.Adapter.universe ~rows:3 ~cols:3 ()
      in
      let m = Metrics.create () in
      let config = Check.config_with ~max_executions:(Some cap) () in
      ignore (Check.run ~config ~metrics:m e.adapter test);
      (match bench_metrics () with
       | Some agg -> Metrics.merge_into ~into:agg m
       | None -> ());
      let distinct = Metrics.get m "analyze.lineup.histories_distinct" in
      let hits = Metrics.get m "analyze.lineup.dedup_hits" in
      let total = distinct + hits in
      Fmt.pr "%-50s %9d %9d %8.1f%%@." name distinct hits
        (if total = 0 then 0.0 else 100.0 *. float hits /. float total))
    [ "Counter"; "ConcurrentQueue"; "ConcurrentStack"; "ConcurrentBag"; "SemaphoreSlim" ]
