(* Dynamic partial-order reduction.

   The load-bearing property, checked at every level the reduction touches:
   with [por = true] the explorer runs no more (usually far fewer)
   executions, and nothing observable changes — the set of distinct
   histories, the verdict, deadlock/stuck classification, and the [-j]
   byte-identity contract are all exactly as without the reduction. On top
   of that sit the targeted regressions: the sleep set must never prune the
   sole schedule reaching a known bug, and serial mode must never be
   reduced. *)

open Helpers
module Rt = Lineup_runtime.Rt
module Var = Lineup_runtime.Shared_var
module Mutex_ = Lineup_runtime.Mutex_
module Footprint = Lineup_runtime.Footprint
module Exec_ctx = Lineup_runtime.Exec_ctx
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
module Conc = Lineup_conc
open Lineup

let explore_all ?(por = false) config ~setup ~on_execution =
  Explore.explore { config with Explore.por } ~setup ~on_execution ()

let unbounded = { Explore.default_config with preemption_bound = None }

(* ---- footprint conflict semantics ---- *)

let fp_tests =
  let a1 = Footprint.access ~loc:1 ~kind:Exec_ctx.Read in
  let a1w = Footprint.access ~loc:1 ~kind:Exec_ctx.Write in
  let a1r = Footprint.access ~loc:1 ~kind:Exec_ctx.Rmw in
  let a2w = Footprint.access ~loc:2 ~kind:Exec_ctx.Write in
  let chk name expect x y =
    Alcotest.(check bool) name expect (Footprint.conflicts x y);
    Alcotest.(check bool) (name ^ " (sym)") expect (Footprint.conflicts y x)
  in
  test "footprint conflicts: the commutation matrix" (fun () ->
      chk "read/read same loc commute" false a1 a1;
      chk "read/write same loc conflict" true a1 a1w;
      chk "rmw/rmw same loc conflict" true a1r a1r;
      chk "write/write different locs commute" false a1w a2w;
      chk "pure commutes with everything" false Footprint.pure a1w;
      chk "pure commutes with unknown" false Footprint.pure Footprint.unknown;
      chk "pure commutes with events" false Footprint.pure Footprint.event;
      chk "events never commute with events" true Footprint.event Footprint.event;
      chk "events commute with accesses" false Footprint.event a1w;
      chk "unknown conflicts with accesses" true Footprint.unknown a1;
      chk "unknown conflicts with events" true Footprint.unknown Footprint.event;
      chk "unknown conflicts with unknown" true Footprint.unknown Footprint.unknown)

(* ---- explorer level: observable outcomes are preserved ---- *)

(* The classic lost-update race: the reduction must preserve the set of
   reachable final values — both the correct 2 and the racy 1 — even as it
   collapses the execution count. *)
let preserved_results_case ~name ~config =
  test name (fun () ->
      let run ~por =
        let seen = Hashtbl.create 8 in
        let n = ref 0 in
        let v_cell = ref None in
        let stats =
          explore_all ~por config
            ~setup:(fun () ->
              let v = Var.make 0 in
              v_cell := Some v;
              let body () =
                let x = Var.read v in
                Var.write v (x + 1)
              in
              [| body; body |])
            ~on_execution:(fun _ ->
              incr n;
              Hashtbl.replace seen (Var.peek (Option.get !v_cell)) ();
              `Continue)
        in
        let set = Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare in
        set, !n, stats
      in
      let set_off, n_off, _ = run ~por:false in
      let set_on, n_on, stats_on = run ~por:true in
      Alcotest.(check (list int)) "same result set (lost update still found)" set_off set_on;
      Alcotest.(check (list int)) "both outcomes reachable" [ 1; 2 ] set_on;
      Alcotest.(check bool) "no more executions" true (n_on <= n_off);
      Alcotest.(check bool) "exploration complete" true stats_on.Explore.complete)

let deadlock_preserved =
  test "por: lock-order-inversion deadlock is still found" (fun () ->
      let count ~por =
        let deadlocks = ref 0 in
        let n = ref 0 in
        let _ =
          explore_all ~por unbounded
            ~setup:(fun () ->
              let m1 = Mutex_.create ~name:"m1" () in
              let m2 = Mutex_.create ~name:"m2" () in
              [|
                (fun () ->
                  Mutex_.acquire m1;
                  Mutex_.acquire m2;
                  Mutex_.release m2;
                  Mutex_.release m1);
                (fun () ->
                  Mutex_.acquire m2;
                  Mutex_.acquire m1;
                  Mutex_.release m1;
                  Mutex_.release m2);
              |])
            ~on_execution:(fun o ->
              incr n;
              (match o.Explore.exec_end with
               | Explore.Deadlock _ -> incr deadlocks
               | _ -> ());
              `Continue)
        in
        !deadlocks, !n
      in
      let d_off, n_off = count ~por:false in
      let d_on, n_on = count ~por:true in
      Alcotest.(check bool) "deadlock found unreduced" true (d_off > 0);
      Alcotest.(check bool) "deadlock found reduced" true (d_on > 0);
      Alcotest.(check bool) "no more executions" true (n_on <= n_off))

let serial_noop =
  test "por is a no-op in serial mode" (fun () ->
      let run ~por =
        let steps = ref [] in
        let stats =
          explore_all ~por Explore.serial_config
            ~setup:(fun () ->
              let v = Var.make 0 in
              Array.init 2 (fun _ () ->
                  for _ = 1 to 2 do
                    Rt.op_boundary ();
                    Var.write v (Var.read v + 1)
                  done))
            ~on_execution:(fun o ->
              steps := o.Explore.steps :: !steps;
              `Continue)
        in
        List.rev !steps, stats
      in
      let s_off, st_off = run ~por:false in
      let s_on, st_on = run ~por:true in
      Alcotest.(check (list int)) "identical execution sequence" s_off s_on;
      Alcotest.(check int) "identical execution count" st_off.Explore.executions
        st_on.Explore.executions;
      Alcotest.(check int) "nothing slept" 0 st_on.Explore.sleep_set_skips)

(* ---- harness level: the distinct-history set is preserved ---- *)

let histories ?(por = false) ?(pb = Explore.default_config.Explore.preemption_bound)
    ~adapter ~test () =
  history_set { Explore.default_config with por; preemption_bound = pb } ~adapter ~test

let history_set_case ~name ~adapter ~test:t =
  test name (fun () ->
      let set_off, stats_off = histories ~adapter ~test:t () in
      let set_on, stats_on = histories ~por:true ~adapter ~test:t () in
      Alcotest.(check int) "same distinct-history count" (List.length set_off)
        (List.length set_on);
      Alcotest.(check bool) "same distinct-history set" true (set_off = set_on);
      Alcotest.(check bool) "reduced"
        true
        (stats_on.Explore.executions <= stats_off.Explore.executions);
      Alcotest.(check bool) "something was actually pruned" true
        (stats_on.Explore.sleep_set_skips > 0 || stats_on.Explore.executions < stats_off.Explore.executions))

(* ---- qcheck: random programs, random bounds ---- *)

let por_equivalence_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"random tests x bounds: por preserves verdict and distinct histories"
       ~count:40
       (QCheck.make
          QCheck.Gen.(pair small_signed_int (int_bound 2))
          ~print:(fun (seed, pb) -> Printf.sprintf "seed=%d pb=%d" seed pb))
       (fun (seed, pb) ->
         let rng = Random.State.make [| seed; 23 |] in
         let adapter = Conc.Concurrent_queue.correct in
         let t =
           Test_matrix.random ~rng ~invocations:adapter.Adapter.universe ~rows:2 ~cols:2 ()
         in
         let set_off, stats_off = histories ~pb:(Some pb) ~adapter ~test:t () in
         let set_on, stats_on = histories ~por:true ~pb:(Some pb) ~adapter ~test:t () in
         set_off = set_on && stats_on.Explore.executions <= stats_off.Explore.executions))

(* ---- check level: verdicts, bug reproduction, -j composition ---- *)

let check_verdict_case ~name ~adapter ~test:t ~expect_fail =
  test name (fun () ->
      let run por =
        Check.run ~config:(Check.config_with ~por ()) adapter t
      in
      let r_off = run false in
      let r_on = run true in
      Alcotest.(check bool) "same verdict kind" true
        (Check.passed r_off = Check.passed r_on && Check.failed r_off = Check.failed r_on);
      Alcotest.(check bool) "expected verdict" expect_fail (Check.failed r_on))

(* The Fig. 1-style bug: TryDequeue's timed lock acquisition times out and
   misreports an empty queue. The violating schedule needs the demonic
   timeout branch *and* a specific contention pattern; a sleep set that
   over-prunes around the lock's Rmw footprint would lose it. *)
let timed_lock_not_pruned =
  let t =
    Test_matrix.make ~init:[ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]
      [ [ inv "TryDequeue" ]; [ inv "TryDequeue" ] ]
  in
  check_verdict_case ~name:"por: the timed-lock bug (Fig. 1) is never slept away"
    ~adapter:Conc.Concurrent_queue.pre ~test:t ~expect_fail:true

let stable_result ~adapter ~test r m =
  Report.check_result_to_string ~adapter ~test r ^ "\n" ^ Metrics.to_json m

let jobs_identical_with_por =
  test "por x -j: verdict, report and metrics identical for j=1 and j=4" (fun () ->
      let adapter = Conc.Counters.correct in
      let t = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ] in
      let with_domains j =
        let config = { (Check.config_with ~por:true ()) with Check.phase2_domains = Some j } in
        let m = Metrics.create () in
        let r = Check.run ~config ~metrics:m adapter t in
        r, stable_result ~adapter ~test:t r m
      in
      let r1, s1 = with_domains 1 in
      let r4, s4 = with_domains 4 in
      Alcotest.(check bool) "both pass" true (Check.passed r1 && Check.passed r4);
      Alcotest.(check string) "byte-identical" s1 s4)

(* ---- exact statistics ---- *)

(* The explorer replays each node's recorded facts instead of re-deriving
   them, so every statistic must come out exactly as when it re-derived
   them all. Each row is an adapter, a test (init and columns) and a
   preemption bound, explored whole under [--por]; the expected counts are
   executions, steps, choice points, backtrack points, sleep-set skips,
   preemptions, yields, max depth and pruned choices. *)
let stats_table name rows =
  test name (fun () ->
      List.iter
        (fun (adapter_name, init, columns, pb, expect) ->
          let adapter = (Conc.Registry.find adapter_name).Conc.Registry.adapter in
          let _, s =
            history_set
              { Explore.default_config with Explore.por = true; preemption_bound = pb }
              ~adapter ~test:(Test_matrix.make ~init columns)
          in
          let show (e, st, cp, bt, sk, pr, y, d, pn) =
            Fmt.str "exec=%d steps=%d cp=%d bt=%d skips=%d pre=%d yields=%d depth=%d pruned=%d" e
              st cp bt sk pr y d pn
          in
          let got =
            ( s.Explore.executions,
              s.Explore.total_steps,
              s.Explore.choice_points,
              s.Explore.backtrack_points,
              s.Explore.sleep_set_skips,
              s.Explore.preemptions_spent,
              s.Explore.yields,
              s.Explore.max_depth,
              s.Explore.pruned_choices )
          in
          let label = Fmt.str "%s, pb %a" adapter_name Fmt.(option ~none:(any "none") int) pb in
          Alcotest.(check string) label (show expect) (show got);
          Alcotest.(check bool) (label ^ ": complete") true s.Explore.complete)
        rows)

(* The CLI's [-p] always takes a bound, so unbounded reduction is a
   library-only mode, and the properties above compare it with the
   unreduced explorer only by sets and [<=]: pin the bench's 2x2 por tests
   (bench/por_bench.ml) and the fenced Dekker litmus. *)
let unbounded_stats_table =
  let enq_deq =
    [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv_int "Enqueue" 2; inv "TryDequeue" ] ]
  in
  stats_table "unbounded por: exact statistics of the 2x2 bench tests and the Dekker litmus"
    [
      ( "Counter",
        [],
        [ [ inv "Inc"; inv "Get" ]; [ inv "Inc"; inv "Get" ] ],
        None,
        (598, 13_816, 11_358, 617, 20, 1_004, 0, 24, 0) );
      "ConcurrentQueue", [], enq_deq, None, (598, 16_828, 12_228, 721, 124, 1_004, 0, 26, 0);
      ( "ConcurrentStack",
        [],
        [ [ inv_int "Push" 1; inv "TryPop" ]; [ inv_int "Push" 2; inv "TryPop" ] ],
        None,
        (498, 10_584, 7_192, 613, 116, 1_072, 328, 25, 0) );
      ( "ConcurrentBag",
        [],
        [ [ inv_int "Add" 1; inv "TryTake" ]; [ inv_int "Add" 2; inv "TryTake" ] ],
        None,
        (70, 1_680, 1_440, 69, 0, 0, 0, 24, 0) );
      "MichaelScottQueue", [], enq_deq, None, (856, 31_110, 19_372, 1_177, 322, 1_886, 802, 33, 0);
      "SegmentQueue", [], enq_deq, None, (454, 17_828, 11_990, 597, 144, 776, 256, 39, 0);
      ( "DekkerCounter",
        [],
        [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ],
        None,
        (3_031, 112_331, 92_373, 3_062, 32, 13_190, 11_014, 47, 0) );
    ]

(* The reduction floor at the default bound: on the bench's six 2x2 tests
   (bench/por_bench.ml), each run with and without --por completes within
   500,000 executions with the same verdict and distinct-history count,
   and at least three classes need 2x fewer executions or better. *)
let reduction_floor =
  test "por: 2x fewer executions on at least three of the bench's 2x2 tests" (fun () ->
      let enq_deq =
        [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv_int "Enqueue" 2; inv "TryDequeue" ] ]
      in
      let cases =
        [
          "Counter", [ [ inv "Inc"; inv "Get" ]; [ inv "Inc"; inv "Get" ] ];
          "ConcurrentQueue", enq_deq;
          ( "ConcurrentStack",
            [ [ inv_int "Push" 1; inv "TryPop" ]; [ inv_int "Push" 2; inv "TryPop" ] ] );
          ( "ConcurrentBag",
            [ [ inv_int "Add" 1; inv "TryTake" ]; [ inv_int "Add" 2; inv "TryTake" ] ] );
          "MichaelScottQueue", enq_deq;
          "SegmentQueue", enq_deq;
        ]
      in
      let reduced =
        List.filter
          (fun (name, columns) ->
            let adapter = (Conc.Registry.find name).Conc.Registry.adapter in
            let run por =
              let config = Check.config_with ~max_executions:(Some 500_000) ~por () in
              let r = Check.run ~config adapter (Test_matrix.make columns) in
              match r.Check.phase2 with
              | Some p ->
                Alcotest.(check bool) (name ^ ": complete") true p.Check.stats.Explore.complete;
                r, p.Check.stats.Explore.executions, p.Check.histories
              | None -> Alcotest.failf "%s: no phase 2" name
            in
            let r_off, e_off, h_off = run false in
            let r_on, e_on, h_on = run true in
            Alcotest.(check bool) (name ^ ": same verdict") true
              (Check.passed r_off = Check.passed r_on && Check.failed r_off = Check.failed r_on);
            Alcotest.(check int) (name ^ ": same distinct histories") h_off h_on;
            e_off >= 2 * e_on)
          cases
      in
      Alcotest.(check bool)
        (Fmt.str "2x on %s" (String.concat ", " (List.map fst reduced)))
        true
        (List.length reduced >= 3))

(* A value choice made inside a step decides how the step ends, and under a
   bound the end decides whether the step's thread may sleep in its
   siblings. Flipping the choice therefore changes the step's sleep scope
   while the step itself is only replayed. *)
let value_choice_stats_table =
  let timed = "ConcurrentQueue (Pre: timed lock in TryDequeue)" in
  let cts_name = "CancellationTokenSource" in
  let cts =
    [ [ inv "CanBeCanceled"; inv "Cancel" ]; [ inv "Cancel"; inv "IsCancellationRequested" ] ]
  in
  let fig1_init = [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ] in
  let fig1 = [ [ inv "TryDequeue" ]; [ inv "TryDequeue" ] ] in
  let enq_deq = [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv "TryDequeue" ] ] in
  stats_table "por with value choices: exact statistics"
    [
      cts_name, [], cts, Some 1, (1_064, 15_948, 10_387, 0, 85, 784, 0, 17, 1_963);
      cts_name, [], cts, Some 2, (2_130, 32_509, 23_443, 0, 208, 2_916, 0, 17, 1_708);
      cts_name, [], cts, None, (808, 12_177, 9_650, 645, 66, 728, 0, 17, 0);
      timed, fig1_init, fig1, Some 1, (40, 476, 250, 0, 2, 34, 0, 14, 70);
      timed, fig1_init, fig1, Some 2, (76, 884, 542, 0, 2, 106, 0, 14, 66);
      timed, [], enq_deq, Some 1, (126, 2_195, 1_229, 0, 5, 111, 0, 19, 381);
      timed, [], enq_deq, Some 2, (368, 6_481, 4_181, 0, 18, 595, 0, 21, 545);
      timed, [], enq_deq, None, (87, 1_677, 1_144, 88, 22, 110, 0, 19, 0);
    ]

let suite =
  [
    fp_tests;
    preserved_results_case ~name:"por: lost-update result set preserved (bounded)"
      ~config:Explore.default_config;
    preserved_results_case ~name:"por: lost-update result set preserved (unbounded)"
      ~config:unbounded;
    deadlock_preserved;
    serial_noop;
    history_set_case ~name:"por: ConcurrentQueue distinct histories preserved"
      ~adapter:Conc.Concurrent_queue.correct
      ~test:
        (Test_matrix.make
           [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv_int "Enqueue" 2 ] ]);
    history_set_case ~name:"por: Counter distinct histories preserved"
      ~adapter:Conc.Counters.correct
      ~test:(Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc"; inv "Dec" ] ]);
    history_set_case ~name:"por: MichaelScottQueue (lock-free, yields) histories preserved"
      ~adapter:Conc.Michael_scott_queue.adapter
      ~test:(Test_matrix.make [ [ inv_int "Enqueue" 1 ]; [ inv "TryDequeue" ] ]);
    por_equivalence_prop;
    check_verdict_case ~name:"por: correct SemaphoreSlim still passes"
      ~adapter:Conc.Semaphore_slim.correct
      ~test:(Test_matrix.make [ [ inv "Wait"; inv "Release" ]; [ inv "Wait"; inv "Release" ] ])
      ~expect_fail:false;
    check_verdict_case ~name:"por: unlocked-increment bug still fails"
      ~adapter:Conc.Counters.buggy_unlocked
      ~test:(Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ])
      ~expect_fail:true;
    timed_lock_not_pruned;
    jobs_identical_with_por;
    unbounded_stats_table;
    reduction_floor;
    value_choice_stats_table;
  ]

let tests = suite
