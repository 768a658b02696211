(* Cross-validation of the two-phase check against the explicit-spec
   Wing–Gong–Lowe oracle — Theorems 5/6 exercised empirically.

   For implementations that have a matching explicit specification:
   - every concurrent history of a correct implementation must satisfy
     general linearizability w.r.t. the spec (so the implementations are
     validated against their specs, and the harness produces only real
     histories);
   - on correct implementations the two-phase verdict must agree with the
     oracle history-by-history (witness found <=> WGL accepts);
   - when Line-Up reports a violation on a seeded defect, the oracle must
     refute the reported history too (completeness: no false alarms). *)

open Helpers
module History = Lineup_history.History
module Lin_check = Lineup_spec.Lin_check
module Spec = Lineup_spec.Spec
module Specs = Lineup_spec.Specs
module Explore = Lineup_scheduler.Explore
module Conc = Lineup_conc
open Lineup

(* implementation/specification pairs, with the invocations valid for both *)
type pair =
  | Pair : {
      name : string;
      adapter : Adapter.t;
      spec : 'st Spec.t;
      invocations : Lineup_history.Invocation.t list;
    }
      -> pair

let pairs =
  [
    Pair
      {
        name = "Counter";
        adapter = Conc.Counters.correct;
        spec = Specs.counter;
        invocations = [ inv "Inc"; inv "Get"; inv_int "Set" 3; inv "Dec" ];
      };
    Pair
      {
        name = "ConcurrentQueue";
        adapter = Conc.Concurrent_queue.correct;
        spec = Specs.queue;
        invocations =
          [ inv_int "Enqueue" 1; inv_int "Enqueue" 2; inv "TryDequeue"; inv "TryPeek"; inv "Count"; inv "IsEmpty" ];
      };
    Pair
      {
        name = "MichaelScottQueue";
        adapter = Conc.Michael_scott_queue.adapter;
        spec = Specs.queue;
        invocations = [ inv_int "Enqueue" 1; inv_int "Enqueue" 2; inv "TryDequeue"; inv "TryPeek"; inv "IsEmpty" ];
      };
    Pair
      {
        name = "SegmentQueue";
        adapter = Conc.Segment_queue.adapter;
        spec = Specs.queue;
        invocations = [ inv_int "Enqueue" 1; inv_int "Enqueue" 2; inv "TryDequeue"; inv "TryPeek"; inv "IsEmpty" ];
      };
    Pair
      {
        name = "ConcurrentStack";
        adapter = Conc.Concurrent_stack.correct;
        spec = Specs.stack;
        invocations =
          [ inv_int "Push" 1; inv_int "Push" 2; inv "TryPop"; inv "TryPeek"; inv "Count"; inv_int "TryPopRange" 2 ];
      };
    Pair
      {
        name = "SemaphoreSlim";
        adapter = Conc.Semaphore_slim.correct;
        spec = Specs.semaphore ~initial:0;
        invocations = [ inv "Release"; inv "Wait"; inv "TryWait"; inv "CurrentCount"; inv_int "ReleaseMany" 2 ];
      };
    Pair
      {
        name = "ManualResetEvent";
        adapter = Conc.Manual_reset_event.correct;
        spec = Specs.manual_reset_event ~initial:false;
        invocations = [ inv "Set"; inv "Reset"; inv "Wait"; inv "TryWait"; inv "IsSet" ];
      };
  ]

(* random 2x2 test over the pair's invocations *)
let random_test rng invocations =
  Test_matrix.random ~rng ~invocations ~rows:2 ~cols:2 ()

let explore_histories adapter test ~cap =
  let histories = ref [] in
  let config = { Explore.default_config with Explore.max_executions = Some cap } in
  let _ =
    Harness.run_phase config ~adapter ~test ~on_history:(fun r ->
        histories := r.Harness.history :: !histories;
        `Continue)
  in
  !histories

(* distinct histories only: the oracle is the expensive side *)
let distinct histories =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun h ->
      let key = History.events h, History.is_stuck h in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    histories

let correctness_props =
  List.map
    (fun (Pair p) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:(Fmt.str "%s: every explored history satisfies the spec" p.name)
           ~count:20
           (QCheck.make
              (QCheck.Gen.map
                 (fun seed -> random_test (Random.State.make [| seed |]) p.invocations)
                 QCheck.Gen.small_signed_int))
           (fun test ->
             let histories = distinct (explore_histories p.adapter test ~cap:120) in
             List.for_all (fun h -> Lin_check.check_general p.spec h) histories)))
    pairs

let agreement_props =
  List.map
    (fun (Pair p) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:(Fmt.str "%s: witness search agrees with the oracle" p.name)
           ~count:15
           (QCheck.make
              (QCheck.Gen.map
                 (fun seed -> random_test (Random.State.make [| seed + 977 |]) p.invocations)
                 QCheck.Gen.small_signed_int))
           (fun test ->
             match Check.synthesize p.adapter test with
             | Error _ -> false (* correct implementations are deterministic *)
             | Ok (obs, _) ->
               let histories = distinct (explore_histories p.adapter test ~cap:120) in
               List.for_all
                 (fun h ->
                   if History.is_stuck h then
                     Result.is_ok (Observation.linearizable_stuck obs h)
                     = Result.is_ok (Lin_check.check_stuck p.spec h)
                   else
                     Option.is_some (Observation.find_witness_full obs h)
                     = Lin_check.check p.spec h)
                 histories)))
    pairs

(* seeded defects whose violating histories the oracle must refute *)
type buggy_pair =
  | Buggy : {
      name : string;
      adapter : Adapter.t;
      spec : 'st Spec.t;
      columns : Lineup_history.Invocation.t list list;
    }
      -> buggy_pair

let buggy_pairs =
  [
    Buggy
      {
        name = "ConcurrentQueue (Pre)";
        adapter = Conc.Concurrent_queue.pre;
        spec = Specs.queue;
        columns =
          [ [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]; [ inv "TryDequeue"; inv "TryDequeue" ] ];
      };
    Buggy
      {
        name = "SemaphoreSlim (Pre)";
        adapter = Conc.Semaphore_slim.pre;
        spec = Specs.semaphore ~initial:0;
        columns = [ [ inv "Release" ]; [ inv "Release"; inv "CurrentCount" ] ];
      };
    Buggy
      {
        name = "ConcurrentStack (Pre)";
        adapter = Conc.Concurrent_stack.pre;
        spec = Specs.stack;
        columns = [ [ inv_int "Push" 1; inv_int "Push" 2 ]; [ inv_int "TryPopRange" 2 ] ];
      };
    Buggy
      {
        name = "ManualResetEvent (Pre: lost signal)";
        adapter = Conc.Manual_reset_event.lost_signal;
        spec = Specs.manual_reset_event ~initial:false;
        columns = [ [ inv "Wait" ]; [ inv "Set" ] ];
      };
  ]

let completeness_tests =
  List.map
    (fun (Buggy b) ->
      test (Fmt.str "%s: the reported violation is refuted by the oracle" b.name) (fun () ->
          let r = Check.run b.adapter (Test_matrix.make b.columns) in
          match r.Check.verdict with
          | Check.Fail (Check.No_witness h) ->
            Alcotest.(check bool) "oracle refutes" false (Lin_check.check b.spec h)
          | Check.Fail (Check.Stuck_unjustified (h, _)) ->
            Alcotest.(check bool) "oracle refutes" false
              (Result.is_ok (Lin_check.check_stuck b.spec h))
          | Check.Fail v -> Alcotest.failf "unexpected violation: %a" Check.pp_violation v
          | Check.Pass | Check.Cancelled -> Alcotest.fail "expected a violation"))
    buggy_pairs

(* SegmentQueue.IsEmpty once read [high] before [low] (OCaml evaluates the
   operands of [>=] right to left), so it could report an empty queue that
   never was: here IsEmpty runs after Enqueue(1), and the other thread's
   Enqueue(2) precedes its only TryDequeue, so the queue is never empty.
   The correctness property above found it under QCHECK_SEED=637050644. *)
let regression_tests =
  [
    test "SegmentQueue: IsEmpty never reports a queue that was not empty" (fun () ->
        let t =
          Test_matrix.make
            [ [ inv_int "Enqueue" 1; inv "IsEmpty" ]; [ inv_int "Enqueue" 2; inv "TryDequeue" ] ]
        in
        let r = Check.run Conc.Segment_queue.adapter t in
        Alcotest.(check bool) (Report.summary r) true (Check.passed r));
  ]

let tests = correctness_props @ agreement_props @ completeness_tests @ regression_tests
