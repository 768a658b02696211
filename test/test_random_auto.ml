open Helpers
module Conc = Lineup_conc
open Lineup

let counter1_invs = [ inv "Inc"; inv "Get"; inv_int "Set" 5 ]
let draw ?(invocations = counter1_invs) ~rows ~cols rng =
  Test_matrix.random ~rng ~invocations ~rows ~cols ()

let suite =
  [
    test "random_check finds the counter1 bug" (fun () ->
        let report =
          Random_check.run ~stop_at_first:true ~seed:1 ~samples:50 ~draw:(draw ~rows:2 ~cols:2)
            Conc.Counters.buggy_unlocked
        in
        Alcotest.(check bool) "found" true (report.Random_check.failed > 0));
    test "random_check passes the correct counter" (fun () ->
        let report =
          Random_check.run ~seed:2 ~samples:10 ~draw:(draw ~rows:2 ~cols:2) Conc.Counters.correct
        in
        Alcotest.(check int) "failures" 0 report.Random_check.failed;
        Alcotest.(check int) "passes" 10 report.Random_check.passed);
    test "random_check is reproducible from the seed" (fun () ->
        let run () =
          let r =
            Random_check.run ~seed:3 ~samples:8 ~draw:(draw ~rows:2 ~cols:2)
              Conc.Counters.buggy_unlocked
          in
          List.map
            (fun (o : Random_check.test_outcome) -> Check.passed o.result)
            r.Random_check.outcomes
        in
        Alcotest.(check (list bool)) "same verdicts" (run ()) (run ()));
    test "random_check samples the draws of one seeded stream, at any domain count" (fun () ->
        (* sample i is the i-th draw on [Random.State.make [|seed|]]: the
           sample of Table 2 and of [lineup random --seed] *)
        let rng = Random.State.make [| 42 |] in
        let expected = List.init 6 (fun _ -> draw ~rows:2 ~cols:2 rng) in
        List.iter
          (fun domains ->
            let r =
              Random_check.run ~domains ~seed:42 ~samples:6 ~draw:(draw ~rows:2 ~cols:2)
                Conc.Counters.correct
            in
            Alcotest.(check (list (testable Test_matrix.pp Test_matrix.equal)))
              (Fmt.str "domains %d: the drawn tests, in order" domains)
              expected
              (List.map (fun (o : Random_check.test_outcome) -> o.test) r.Random_check.outcomes))
          [ 1; 4 ]);
    test "random_check stop_at_first stops early" (fun () ->
        let report =
          Random_check.run ~stop_at_first:true ~seed:4 ~samples:100
            ~draw:(draw ~invocations:[ inv "Release" ] ~rows:1 ~cols:2)
            Conc.Semaphore_slim.pre
        in
        Alcotest.(check int) "stopped after first failure" 1
          (List.length report.Random_check.outcomes));
    test "test_matrix.random has the requested dimensions" (fun () ->
        let rng = Random.State.make [| 5 |] in
        let m = Test_matrix.random ~rng ~invocations:counter1_invs ~rows:3 ~cols:2 () in
        Alcotest.(check (pair int int)) "dims" (3, 2) (Test_matrix.dims m);
        Alcotest.(check int) "cells" 6 (Test_matrix.num_invocations m));
    test "test_matrix.enumerate counts |I|^(rows*cols)" (fun () ->
        let n =
          Seq.fold_left
            (fun acc _ -> acc + 1)
            0
            (Test_matrix.enumerate ~invocations:[ inv "A"; inv "B" ] ~rows:1 ~cols:2)
        in
        Alcotest.(check int) "4 tests" 4 n;
        let n =
          Seq.fold_left
            (fun acc _ -> acc + 1)
            0
            (Test_matrix.enumerate ~invocations:[ inv "A"; inv "B"; inv "C" ] ~rows:2 ~cols:1)
        in
        Alcotest.(check int) "9 tests" 9 n);
    test "test_matrix.is_prefix" (fun () ->
        let m1 = Test_matrix.make [ [ inv "A" ]; [ inv "B" ] ] in
        let m2 = Test_matrix.make [ [ inv "A"; inv "C" ]; [ inv "B" ]; [ inv "D" ] ] in
        Alcotest.(check bool) "prefix" true (Test_matrix.is_prefix m1 m2);
        Alcotest.(check bool) "not prefix" false (Test_matrix.is_prefix m2 m1));
    test "auto_check finds the lazy bug on a small universe" (fun () ->
        match Auto_check.run ~max_tests:200 Conc.Lazy_init.pre with
        | Auto_check.Failed { test; tests_run; _ } ->
          Alcotest.(check bool) "within budget" true (tests_run <= 200);
          Alcotest.(check bool) "small test" true (Test_matrix.num_invocations test <= 4)
        | Auto_check.Budget_exhausted _ -> Alcotest.fail "expected a failure");
    test "auto_check exhausts budget on a correct implementation" (fun () ->
        match Auto_check.run ~max_tests:10 Conc.Counters.correct with
        | Auto_check.Budget_exhausted { tests_run; _ } ->
          Alcotest.(check int) "ran" 10 tests_run
        | Auto_check.Failed _ -> Alcotest.fail "correct implementation failed");
    test "lemma 8: a failing test still fails as a prefix of a larger test" (fun () ->
        let small = Test_matrix.make [ [ inv "Release" ]; [ inv "Release" ] ] in
        let large =
          Test_matrix.make
            [ [ inv "Release"; inv "CurrentCount" ]; [ inv "Release"; inv "TryWait" ] ]
        in
        Alcotest.(check bool) "prefix" true (Test_matrix.is_prefix small large);
        Alcotest.(check bool) "small fails" false
          (Check.passed (Check.run Conc.Semaphore_slim.pre small));
        Alcotest.(check bool) "large fails too" false
          (Check.passed (Check.run Conc.Semaphore_slim.pre large)));
    test "minimize reduces the Fig. 1 test" (fun () ->
        let big =
          Test_matrix.make
            [
              [ inv_int "Enqueue" 200; inv_int "Enqueue" 400; inv "Count" ];
              [ inv "TryDequeue"; inv "TryDequeue"; inv "IsEmpty" ];
            ]
        in
        let r = Minimize.reduce Conc.Concurrent_queue.pre big in
        Alcotest.(check bool) "still fails" false (Check.passed r.Minimize.check);
        Alcotest.(check bool) "smaller" true
          (Test_matrix.num_invocations r.Minimize.test < Test_matrix.num_invocations big);
        (* the Fig. 1 bug needs one enqueue and one dequeue plus contention *)
        Alcotest.(check bool) "at least 2 invocations" true
          (Test_matrix.num_invocations r.Minimize.test >= 2));
    test "minimize rejects passing tests" (fun () ->
        let passing = Test_matrix.make [ [ inv "Inc" ] ] in
        match Minimize.reduce Conc.Counters.correct passing with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
    test "minimized semaphore bug is 1x2" (fun () ->
        let big =
          Test_matrix.make
            [ [ inv "Release"; inv "Release" ]; [ inv "CurrentCount"; inv "Release" ] ]
        in
        let r = Minimize.reduce Conc.Semaphore_slim.pre big in
        let rows, cols = Test_matrix.dims r.Minimize.test in
        Alcotest.(check bool) "tiny" true (rows * cols <= 3 && cols = 2));
  ]

let tests = suite
