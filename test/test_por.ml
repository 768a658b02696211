(* Dynamic partial-order reduction.

   The load-bearing property, checked at every level the reduction touches:
   with [por = true] the explorer runs no more (usually far fewer)
   executions, and nothing observable changes — the set of distinct
   histories, the verdict, deadlock/stuck classification, and the [-j]
   byte-identity contract are all exactly as without the reduction. On top
   of that sit the targeted regressions: the sleep set must never prune the
   sole schedule reaching a known bug, serial mode must never be reduced,
   and the hoisted admission filter must skip history construction
   entirely for rejected executions. *)

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

let histories ?admit ?(por = false) ?(pb = Explore.default_config.Explore.preemption_bound)
    ~adapter ~test () =
  history_set ?admit { Explore.default_config with por; preemption_bound = pb } ~adapter ~test

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

(* ---- the hoisted admission filter ---- *)

let admit_skips_history_building =
  test "admit: rejected executions never reach on_history" (fun () ->
      let adapter = Conc.Counters.correct in
      let t = Test_matrix.make [ [ inv "Inc" ]; [ inv "Inc" ] ] in
      let delivered = ref 0 in
      let stats =
        Harness.run_phase ~admit:(fun _ -> false) Explore.default_config ~adapter ~test:t
          ~on_history:(fun _ ->
            incr delivered;
            `Continue)
      in
      Alcotest.(check int) "no history built" 0 !delivered;
      Alcotest.(check bool) "executions still ran" true (stats.Explore.executions > 0);
      Alcotest.(check int) "every execution counted as a skip" stats.Explore.executions
        stats.Explore.exact_bound_skips)

let iterative_union_under_por =
  test "iterative sweep under por: exact-bound admission discipline holds" (fun () ->
      let setup () =
        let v = Var.make 0 in
        let w = Var.make 0 in
        [|
          (fun () ->
            Var.write v 1;
            ignore (Var.read w));
          (fun () ->
            Var.write w 1;
            ignore (Var.read v));
        |]
      in
      (* Admission discipline: every admitted execution at bound b spent
         exactly b preemptions (nothing above the sweep bound leaks
         through), re-executed lower-bound schedules are skipped rather
         than re-admitted, and the reduced sweep runs no more executions
         than the unreduced one. *)
      let run por =
        let violations = ref 0 in
        let per_bound, _ =
          Explore.explore_iterative
            { Explore.default_config with por }
            ~max_bound:2 ~setup
            ~on_execution:(fun o ->
              if o.Explore.preemptions > 2 then incr violations;
              `Continue)
        in
        !violations, per_bound
      in
      let v_off, bounds_off = run false in
      let v_on, bounds_on = run true in
      Alcotest.(check int) "no over-bound admissions (off)" 0 v_off;
      Alcotest.(check int) "no over-bound admissions (on)" 0 v_on;
      let skips l =
        List.fold_left (fun acc s -> acc + s.Explore.exact_bound_skips) 0 l
      in
      Alcotest.(check bool) "re-executions skipped, not re-admitted (off)" true
        (skips bounds_off > 0);
      Alcotest.(check bool) "re-executions skipped, not re-admitted (on)" true
        (skips bounds_on > 0);
      let execs l = List.fold_left (fun acc s -> acc + s.Explore.executions) 0 l in
      Alcotest.(check bool) "sweep is reduced too" true (execs bounds_on <= execs bounds_off))

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
    admit_skips_history_building;
    iterative_union_under_por;
  ]

let tests = suite
