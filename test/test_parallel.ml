(* The domain-parallel check fan-out: the work pool itself, and the
   determinism contract of the parallel entry points — verdicts, violation
   sets and rendered reports must be identical for -j 1 and -j 4, including
   when early cancellation kicks in on a failing adapter. *)

open Helpers
module Conc = Lineup_conc
module Explore = Lineup_scheduler.Explore
module Pool = Lineup_parallel.Pool
open Lineup

(* Keep every Check cheap: small matrices, capped phase 2. *)
let config = Check.config_with ~max_executions:(Some 300) ()

let stats_t : Explore.stats Alcotest.testable =
  Alcotest.testable Explore.pp_stats ( = )

(* ---------------- the pool itself ---------------- *)

let pool_suite =
  [
    test "map_seq preserves submission order at any domain count" (fun () ->
        let jobs = List.init 50 Fun.id in
        let f ~cancelled:_ x = x * x in
        let expected = Pool.map_seq ~f (List.to_seq jobs) in
        List.iter
          (fun domains ->
            Alcotest.(check (list int))
              (Fmt.str "domains=%d" domains)
              expected
              (Pool.map_seq ~domains ~f (List.to_seq jobs)))
          [ 2; 4; 8 ]);
    test "map_seq stop truncates at the earliest stopping result" (fun () ->
        let jobs = List.init 50 Fun.id in
        let f ~cancelled:_ x = x in
        let stop x = x >= 17 in
        let expected = List.init 18 Fun.id in
        List.iter
          (fun domains ->
            Alcotest.(check (list int))
              (Fmt.str "domains=%d" domains)
              expected
              (Pool.map_seq ~domains ~stop ~f (List.to_seq jobs)))
          [ 1; 4 ]);
    test "map_seq pulls the sequence lazily" (fun () ->
        let pulled = Atomic.make 0 in
        let jobs =
          Seq.init 1000 (fun i ->
              Atomic.incr pulled;
              i)
        in
        let got =
          Pool.map_seq ~domains:4 ~stop:(fun x -> x >= 5)
            ~f:(fun ~cancelled:_ x -> x)
            jobs
        in
        Alcotest.(check (list int)) "prefix" [ 0; 1; 2; 3; 4; 5 ] got;
        (* enumeration stops shortly after the stop point: the bounded queue
           can overrun by at most its depth (8 at 4 domains) plus in-flight
           jobs *)
        Alcotest.(check bool)
          (Fmt.str "pulled %d of 1000" (Atomic.get pulled))
          true
          (Atomic.get pulled < 100));
    test "map_seq re-raises a job exception" (fun () ->
        let f ~cancelled:_ x = if x = 3 then failwith "boom" else x in
        List.iter
          (fun domains ->
            match Pool.map_seq ~domains ~f (List.to_seq (List.init 10 Fun.id)) with
            | _ -> Alcotest.fail "expected an exception"
            | exception Failure msg ->
              Alcotest.(check string) (Fmt.str "domains=%d" domains) "boom" msg)
          [ 1; 4 ]);
    test "map_seq joins every worker when stop raises" (fun () ->
        (* A raising [stop] escapes the worker body and resurfaces at
           [Domain.join]. The pool must join ALL workers before letting it
           propagate: after map_seq raises, no worker may still be running
           jobs — otherwise the domains (and their in-flight effects) leak
           past the call. *)
        let ran = Atomic.make 0 in
        let f ~cancelled:_ x =
          Atomic.incr ran;
          x
        in
        (match
           Pool.map_seq ~domains:4
             ~stop:(fun _ -> raise Exit)
             ~f
             (List.to_seq (List.init 200 Fun.id))
         with
         | _ -> Alcotest.fail "expected Exit"
         | exception Exit -> ());
        let quiescent = Atomic.get ran in
        Unix.sleepf 0.05;
        Alcotest.(check int) "no worker ran a job after map_seq returned" quiescent
          (Atomic.get ran));
    test "map_seq joins every worker when the job sequence raises" (fun () ->
        (* A lazy job sequence can raise from the feeder (the calling
           domain). Workers blocked on the queue must still be woken,
           drained and joined — the old behavior was a permanent hang —
           and the feeder's exception must propagate. *)
        let jobs =
          Seq.append (Seq.init 5 Fun.id) (fun () -> failwith "seq-boom")
        in
        match Pool.map_seq ~domains:4 ~f:(fun ~cancelled:_ x -> x) jobs with
        | _ -> Alcotest.fail "expected the feeder exception"
        | exception Failure msg -> Alcotest.(check string) "feeder exception" "seq-boom" msg);
    test "cancelled token is never set for results that are kept" (fun () ->
        (* Jobs record whether they ever observed cancellation; kept results
           must all say no — that is what makes the output deterministic. *)
        let f ~cancelled x =
          (* busy-poll a few times to give a racing stop a chance *)
          let saw = ref false in
          for _ = 1 to 100 do
            if cancelled () then saw := true
          done;
          x, !saw
        in
        let got =
          Pool.map_seq ~domains:4 ~stop:(fun (x, _) -> x = 10)
            ~f
            (List.to_seq (List.init 40 Fun.id))
        in
        List.iter
          (fun (x, saw) ->
            Alcotest.(check bool) (Fmt.str "job %d uncancelled" x) false saw)
          got);
  ]

(* ---------------- determinism of the parallel runners ---------------- *)

(* Adapters covering the three interesting regimes: a correct class (full
   sample runs), a racy buggy class (early cancellation on No_witness), and
   a blocking buggy class (stuck-history violations). *)
let subjects =
  [
    "Counter (correct)", Conc.Counters.correct;
    "Counter1 (buggy)", Conc.Counters.buggy_unlocked;
    "SemaphoreSlim (Pre)", Conc.Semaphore_slim.pre;
    "ManualResetEvent (Pre: lost signal)", Conc.Manual_reset_event.lost_signal;
  ]

let render_random (adapter : Adapter.t) (r : Random_check.report) =
  Fmt.str "%d/%d/%d %a %s" (List.length r.outcomes) r.passed r.failed
    Fmt.(list ~sep:sp string)
    (List.map (fun (o : Random_check.test_outcome) -> Report.summary o.result) r.outcomes)
    (match r.first_failure with
     | None -> "-"
     | Some o -> Report.check_result_to_string ~adapter ~test:o.test o.result)

let random_report ~domains ~stop_at_first ~seed (adapter : Adapter.t) =
  Random_check.run ~config ~stop_at_first ~domains ~seed ~samples:8
    ~draw:(fun rng ->
      Test_matrix.random ~rng ~invocations:adapter.Adapter.universe ~rows:2 ~cols:2 ())
    adapter

let determinism_suite =
  [
    test "random_check: -j 1 and -j 4 reports are identical per adapter" (fun () ->
        List.iter
          (fun (name, adapter) ->
            let r1 = random_report ~domains:1 ~stop_at_first:false ~seed:42 adapter in
            let r4 = random_report ~domains:4 ~stop_at_first:false ~seed:42 adapter in
            Alcotest.(check string)
              (name ^ ": rendered reports")
              (render_random adapter r1) (render_random adapter r4);
            Alcotest.(check stats_t) (name ^ ": merged stats") r1.stats r4.stats;
            Alcotest.(check (list bool))
              (name ^ ": violation set")
              (List.map (fun (o : Random_check.test_outcome) -> Check.passed o.result) r1.outcomes)
              (List.map (fun (o : Random_check.test_outcome) -> Check.passed o.result) r4.outcomes))
          subjects);
    test "random_check: stop_at_first early cancellation stays deterministic" (fun () ->
        (* known-buggy adapters: the first failure cancels in-flight
           siblings; the reported prefix must not depend on -j *)
        List.iter
          (fun (name, adapter) ->
            let r1 = random_report ~domains:1 ~stop_at_first:true ~seed:7 adapter in
            let r4 = random_report ~domains:4 ~stop_at_first:true ~seed:7 adapter in
            Alcotest.(check string)
              (name ^ ": rendered reports")
              (render_random adapter r1) (render_random adapter r4))
          [ List.nth subjects 1; List.nth subjects 3 ]);
    test "auto_check: -j 1 and -j 3 agree on the failing test" (fun () ->
        let run domains = Auto_check.run ~config ~domains ~max_tests:200 Conc.Lazy_init.pre in
        match run 1, run 3 with
        | ( Auto_check.Failed { test = t1; result = r1; tests_run = n1; stats = s1 },
            Auto_check.Failed { test = t4; result = r4; tests_run = n4; stats = s4 } ) ->
          Alcotest.(check bool) "same failing test" true (Test_matrix.equal t1 t4);
          Alcotest.(check int) "same tests_run" n1 n4;
          Alcotest.(check stats_t) "same merged stats" s1 s4;
          Alcotest.(check string) "same rendered report"
            (Report.check_result_to_string ~adapter:Conc.Lazy_init.pre ~test:t1 r1)
            (Report.check_result_to_string ~adapter:Conc.Lazy_init.pre ~test:t4 r4)
        | _ -> Alcotest.fail "expected Failed from both runs");
    test "auto_check: -j 1 and -j 4 agree on budget exhaustion" (fun () ->
        let run domains = Auto_check.run ~config ~domains ~max_tests:12 Conc.Counters.correct in
        match run 1, run 4 with
        | ( Auto_check.Budget_exhausted { tests_run = n1; stats = s1 },
            Auto_check.Budget_exhausted { tests_run = n4; stats = s4 } ) ->
          Alcotest.(check int) "same tests_run" n1 n4;
          Alcotest.(check stats_t) "same merged stats" s1 s4
        | _ -> Alcotest.fail "expected Budget_exhausted from both runs");
  ]

(* Property: for arbitrary seeds the parallel report is a function of the
   seed alone (never of the domain count), on a buggy adapter so failing
   prefixes are exercised too. *)
let prop_suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:8 ~name:"random_check report independent of -j (arbitrary seed)"
         QCheck.(int_bound 10_000)
         (fun seed ->
           let adapter = Conc.Counters.buggy_unlocked in
           let r1 = random_report ~domains:1 ~stop_at_first:false ~seed adapter in
           let r4 = random_report ~domains:4 ~stop_at_first:false ~seed adapter in
           String.equal (render_random adapter r1) (render_random adapter r4)));
  ]

let tests = pool_suite @ determinism_suite @ prop_suite
