open Helpers
module Value = Lineup_value.Value
module History = Lineup_history.History
module Lin_check = Lineup_spec.Lin_check
module Specs = Lineup_spec.Specs
module Conc = Lineup_conc
open Lineup

let run ?config adapter cols = Check.run ?config adapter (Test_matrix.make cols)

let expect_pass name r =
  if not (Check.passed r) then
    Alcotest.failf "%s: expected PASS, got %s" name (Report.summary r)

let expect_fail name r =
  if Check.passed r then Alcotest.failf "%s: expected FAIL, got PASS" name

let suite =
  [
    test "correct counter passes" (fun () ->
        expect_pass "counter"
          (run Conc.Counters.correct [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]));
    test "counter1 fails with a non-witnessed history (§2.2.1)" (fun () ->
        let r = run Conc.Counters.buggy_unlocked [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ] in
        match r.Check.verdict with
        | Check.Fail (Check.No_witness h) ->
          (* cross-validate with the explicit-spec checker: the violating
             history must also be refuted by the counter specification *)
          Alcotest.check verdict "WGL agrees" Spec.Reject (Lin_check.decide Specs.counter h)
        | _ -> Alcotest.failf "unexpected verdict: %s" (Report.summary r));
    test "counter2 passes the two-phase check (its blocking is serial too)" (fun () ->
        (* §2.2.2: the synthesized spec itself blocks — Line-Up cannot
           refute Counter2; only a manual spec can (test_lin_check) *)
        expect_pass "counter2"
          (run Conc.Counters.buggy_stuck [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]));
    test "spec-backed queue passes with blocking Take" (fun () ->
        let adapter = Conc.Spec_impl.adapter Specs.queue in
        expect_pass "queue"
          (run adapter [ [ inv_int "Enqueue" 1; inv "Take" ]; [ inv "Take"; inv_int "Enqueue" 2 ] ]));
    test "spec-backed semaphore passes" (fun () ->
        let adapter = Conc.Spec_impl.adapter (Specs.semaphore ~initial:0) in
        expect_pass "semaphore"
          (run adapter [ [ inv "Wait" ]; [ inv "Release"; inv "TryWait" ] ]));
    test "fig. 1 queue bug caught" (fun () ->
        let r =
          run Conc.Concurrent_queue.pre
            [
              [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ];
              [ inv "TryDequeue"; inv "TryDequeue" ];
            ]
        in
        match r.Check.verdict with
        | Check.Fail (Check.No_witness h) ->
          (* the violating history shows a TryDequeue failing although the
             queue was provably non-empty; the explicit queue spec agrees *)
          Alcotest.check verdict "WGL agrees" Spec.Reject (Lin_check.decide Specs.queue h)
        | _ -> Alcotest.failf "unexpected verdict: %s" (Report.summary r));
    test "generalized vs classic: MRE lost signal (§5.5)" (fun () ->
        let cols = [ [ inv "Wait" ]; [ inv "Set" ] ] in
        let generalized = run Conc.Manual_reset_event.lost_signal cols in
        (match generalized.Check.verdict with
         | Check.Fail (Check.Stuck_unjustified _) -> ()
         | _ -> Alcotest.failf "expected stuck violation, got %s" (Report.summary generalized));
        let classic =
          run ~config:(Check.config_with ~classic_only:true ()) Conc.Manual_reset_event.lost_signal
            cols
        in
        expect_pass "classic misses the blocking bug" classic);
    test "phase-1 nondeterminism: CancellationTokenSource" (fun () ->
        let r =
          run Conc.Cancellation_token_source.adapter
            [ [ inv "Cancel" ]; [ inv "IsCancellationRequested" ] ]
        in
        match r.Check.verdict with
        | Check.Fail (Check.Nondeterministic (s1, s2)) ->
          Alcotest.(check bool) "distinct" false (Lineup_history.Serial_history.equal s1 s2);
          Alcotest.(check (option Alcotest.reject)) "phase 2 skipped" None
            (Option.map ignore r.Check.phase2)
        | _ -> Alcotest.failf "expected nondeterminism, got %s" (Report.summary r));
    test "barrier: nonlinearizable by absence of full serial histories" (fun () ->
        let r = run Conc.Barrier.adapter [ [ inv "SignalAndWait" ]; [ inv "SignalAndWait" ] ] in
        (match r.Check.verdict with
         | Check.Fail (Check.No_witness _) -> ()
         | _ -> Alcotest.failf "expected no-witness, got %s" (Report.summary r));
        (* phase 1 must have recorded only stuck serial histories *)
        Alcotest.(check int) "no full serial histories" 0
          (Observation.num_full r.Check.observation);
        Alcotest.(check bool) "stuck histories exist" true
          (Observation.num_stuck r.Check.observation > 0));
    test "phase-1 history count: 1x2 with two ops = 2 orders" (fun () ->
        let r = run Conc.Counters.correct [ [ inv "Inc" ]; [ inv "Get" ] ] in
        Alcotest.(check int) "histories" 2 r.Check.phase1.Check.histories);
    test "phase-2 completeness: violating histories are real (cross-validated)" (fun () ->
        (* every violation Line-Up reports on the buggy semaphore must be
           refuted by the explicit semaphore spec too — Theorem 5 in
           practice *)
        let r = run Conc.Semaphore_slim.pre [ [ inv "Release" ]; [ inv "Release" ] ] in
        match r.Check.verdict with
        | Check.Fail (Check.No_witness h) ->
          Alcotest.check verdict "spec agrees" Spec.Reject
            (Lin_check.decide (Specs.semaphore ~initial:0) h)
        | _ -> Alcotest.failf "unexpected verdict: %s" (Report.summary r));
    test "exception in an operation is reported as Thread_exception" (fun () ->
        let adapter =
          Adapter.make ~name:"thrower" ~universe:[ inv "Boom" ] (fun () ->
              { Adapter.invoke = (fun _ -> failwith "kaboom") })
        in
        let r = run adapter [ [ inv "Boom" ] ] in
        match r.Check.verdict with
        | Check.Fail (Check.Thread_exception _) -> ()
        | _ -> Alcotest.failf "expected exception report, got %s" (Report.summary r));
    test "config_with applies preemption bound and caps" (fun () ->
        let config = Check.config_with ~preemption_bound:(Some 0) ~max_executions:(Some 5) () in
        let r =
          run ~config Conc.Counters.correct [ [ inv "Inc"; inv "Inc" ]; [ inv "Inc"; inv "Get" ] ]
        in
        match r.Check.phase2 with
        | Some p2 ->
          Alcotest.(check bool) "capped" true (p2.Check.stats.Lineup_scheduler.Explore.executions <= 5)
        | None -> Alcotest.fail "phase 2 missing");
    test "verdict summary strings" (fun () ->
        let r = run Conc.Counters.correct [ [ inv "Inc" ] ] in
        Alcotest.(check bool) "pass prefix" true
          (String.length (Report.summary r) >= 4 && String.sub (Report.summary r) 0 4 = "PASS"));
    test "bag nondeterminism is flagged (root cause H)" (fun () ->
        let r =
          run Conc.Concurrent_bag.adapter
            [ [ inv_int "Add" 10; inv_int "Add" 20 ]; [ inv "TryTake" ] ]
        in
        expect_fail "bag" r);
    test "segmented blocking collection Count anomaly (root cause I)" (fun () ->
        let r =
          run Conc.Blocking_collection.segmented
            [ [ inv_int "Add" 200; inv_int "Add" 400 ]; [ inv "Count" ] ]
        in
        expect_fail "count" r);
    test "fifo blocking collection passes the same test" (fun () ->
        let r =
          run Conc.Blocking_collection.fifo
            [ [ inv_int "Add" 200; inv_int "Add" 400 ]; [ inv "Count" ] ]
        in
        expect_pass "fifo" r);
    test "michael-scott queue passes a mixed test" (fun () ->
        let r =
          run Conc.Michael_scott_queue.adapter
            [ [ inv_int "Enqueue" 200; inv "TryDequeue" ]; [ inv_int "Enqueue" 400; inv "TryPeek" ] ]
        in
        expect_pass "msq" r);
  ]

(* ------------------------------------------------------------------ *)
(* Phase-2 dedup soundness                                              *)
(* ------------------------------------------------------------------ *)

module Metrics = Lineup_observe.Metrics
module Explore = Lineup_scheduler.Explore

let fp_mask = 0x3FFF_FFFF_FFFF

(* A distinct history's fingerprint, restated from its definition: the
   value [histories_fingerprint] sums. *)
let fingerprint h = Hashtbl.hash_param 256 256 (History.events h, History.is_stuck h) land fp_mask

(* Phase 2 over the enumeration [Check.run] drives on one domain, with a
   naive dedup: each history is compared with every distinct one so far by
   [History.equal]. Stops where [Check.run] stops: at an exception or the
   first rejected history. *)
let naive_phase2 config adapter test =
  match Check.synthesize ~config adapter test with
  | Error _ -> Alcotest.fail "phase 1 unexpectedly failed"
  | Ok (obs, _) ->
    let seen = ref [] and fp = ref 0 in
    let rejects h = not (holds (observed obs) h) in
    ignore
      (Harness.run_phase config.Check.phase2 ~adapter ~test ~on_history:(fun r ->
           let h = r.Harness.history in
           if r.Harness.outcome.Explore.errors <> [] then `Stop
           else if List.exists (History.equal h) !seen then `Continue
           else begin
             seen := h :: !seen;
             fp := (!fp + fingerprint h) land fp_mask;
             if rejects h then `Stop else `Continue
           end));
    List.length !seen, !fp

let dedup_case name ?(pb = 2) ?cap ?(por = false) class_name columns =
  test ("dedup matches a naive History.equal dedup: " ^ name) (fun () ->
      let adapter = (Conc.Registry.find class_name).Conc.Registry.adapter in
      let test = Test_matrix.make columns in
      let config =
        Check.config_with ~preemption_bound:(Some pb) ~max_executions:cap ~por ()
      in
      let m = Metrics.create () in
      ignore (Check.run ~config ~metrics:m adapter test);
      let distinct, fp = naive_phase2 config adapter test in
      Alcotest.(check bool) "some history was checked" true (distinct > 0);
      Alcotest.(check int) "histories_distinct" distinct
        (Metrics.get m "analyze.lineup.histories_distinct");
      Alcotest.(check int) "histories_fingerprint" fp
        (Metrics.get m "analyze.lineup.histories_fingerprint"))

let dedup_suite =
  [
    dedup_case "Fig. 1 queue" "ConcurrentQueue (Pre: timed lock in TryDequeue)"
      [ [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]; [ inv "TryDequeue"; inv "TryDequeue" ] ];
    dedup_case "3x3 stack, pb=2, por" ~por:true ~cap:2000 "ConcurrentStack"
      [
        [ inv_int "Push" 1; inv "TryPop"; inv_int "Push" 2 ];
        [ inv_int "Push" 3; inv "TryPop"; inv "TryPop" ];
        [ inv_int "Push" 4; inv "TryPop"; inv_int "Push" 5 ];
      ];
    dedup_case "3x3 bag" ~cap:1500 "ConcurrentBag"
      [
        [ inv_int "Add" 1; inv "TryTake"; inv_int "Add" 2 ];
        [ inv_int "Add" 3; inv "TryTake"; inv "TryTake" ];
        [ inv "TryTake"; inv_int "Add" 4; inv "TryTake" ];
      ];
    dedup_case "failing class (stuck violation)" "ManualResetEvent (Pre: lost signal)"
      [ [ inv "Wait" ]; [ inv "Set" ] ];
    test "dedup: histories equal over the hash window stay distinct" (fun () ->
        (* 100 operations: far past the 256 words the fingerprint reads *)
        let long last =
          history
            (List.concat
               (List.init 100 (fun i ->
                    [ call 0 i "Inc" (); ret 0 i (if i = 99 then last else Value.unit) ])))
        in
        let h1 = long (Value.int 1) and h2 = long (Value.int 2) in
        let seen = Check.Distinct.create 16 in
        let fp1 = Check.Distinct.add seen h1 in
        let fp2 = Check.Distinct.add seen h2 in
        Alcotest.(check bool) "first is new" true (Option.is_some fp1);
        Alcotest.(check bool) "second is new" true (Option.is_some fp2);
        Alcotest.(check (option int)) "the fingerprints collide" fp1 fp2;
        Alcotest.(check (option int)) "a repeat of the first is a hit" None
          (Check.Distinct.add seen h1);
        Alcotest.(check (option int)) "a repeat of the second is a hit" None
          (Check.Distinct.add seen h2));
  ]

let tests = suite @ dedup_suite
