(* The engines of [lineup monitor], each fed one whole history
   ([decide]), cross-validated against the Wing–Gong oracle ([Lin_check]),
   and phase 2's verdicts:

   - the queue/stack decrease-and-conquer engines against the oracle on
     random synthetic histories — both accepting and rejecting ones,
     which harness-produced histories of correct implementations cannot
     provide;
   - the per-key set/dictionary engine against the oracle on synthetic
     set histories;
   - every engine against the oracle on every complete history the
     harness explores for the queue, stack, set and dictionary adapters
     (correct and seeded-bug);
   - [Check.run] end-to-end on correct, seeded-bug and blocking adapters:
     the verdict and the distinct-history count;
   - [Lin_check]'s structured [`Unsupported] on >62-operation histories
     (the legacy entry points still raise), and the per-key engine
     deciding a 63-operation history the direct search refuses;
   - the [Minimize.reduce] descent skipping cancelled candidates — the
     regression for "any non-passing candidate counts as failing". *)

open Helpers
module Value = Lineup_value.Value
module History = Lineup_history.History
module Lin_check = Lineup_spec.Lin_check
module Monitor = Lineup_spec.Monitor
module Engine = Lineup_monitor.Engine
module Spec = Lineup_spec.Spec
module Specs = Lineup_spec.Specs
module Explore = Lineup_scheduler.Explore
module Conc = Lineup_conc
open Lineup

(* ---------------- synthetic history generation ---------------- *)

(* A random well-formed complete history: [ops] are (inv, resp) pairs,
   distributed round-robin-randomly over two threads, then interleaved by a
   random walk over per-thread "call next / return current" moves. Every
   generated history is complete (no pending operations). *)
let interleave rng ops =
  let cols = [| ref []; ref [] |] in
  List.iter (fun op -> let c = cols.(Random.State.int rng 2) in c := op :: !c) ops;
  let pending = Array.map (fun c -> ref (List.rev !c)) cols in
  let in_flight = [| None; None |] in
  let next_index = [| 0; 0 |] in
  let events = ref [] in
  let moves_left () =
    Array.exists Option.is_some in_flight
    || Array.exists (fun p -> !p <> []) pending
  in
  while moves_left () do
    let tid = Random.State.int rng 2 in
    match in_flight.(tid) with
    | Some resp ->
      events := ret tid next_index.(tid) resp :: !events;
      in_flight.(tid) <- None;
      next_index.(tid) <- next_index.(tid) + 1
    | None -> (
      match !(pending.(tid)) with
      | [] -> ()
      | (i, resp) :: rest ->
        events := Lineup_history.Event.call ~tid ~op_index:next_index.(tid) i :: !events;
        in_flight.(tid) <- Some resp;
        pending.(tid) := rest)
  done;
  history (List.rev !events)

(* Random queue/stack-shaped op multiset: distinct insert values; removes
   answer [Fail] or a random insert value — duplicated and out-of-thin-air
   answers included on purpose, so the generator produces rejecting
   histories as well as accepting ones. *)
let random_lifo_fifo_ops rng ~insert ~remove =
  let n = 2 + Random.State.int rng 5 in
  let kinds = List.init n (fun i -> i, Random.State.bool rng) in
  let inserts = List.filter_map (fun (i, k) -> if k then Some (100 * (i + 1)) else None) kinds in
  List.map
    (fun (i, k) ->
      if k then inv_int insert (100 * (i + 1)), Value.unit
      else
        let resp =
          if inserts = [] || Random.State.int rng 3 = 0 then Value.Fail
          else Value.int (List.nth inserts (Random.State.int rng (List.length inserts)))
        in
        inv remove, resp)
    kinds

let random_set_ops rng =
  let n = 2 + Random.State.int rng 5 in
  List.init n (fun _ ->
      let name = List.nth [ "Add"; "Remove"; "Contains" ] (Random.State.int rng 3) in
      let key = 1 + Random.State.int rng 2 in
      inv_int name key, Value.bool (Random.State.bool rng))

let seed_arb = QCheck.make QCheck.Gen.small_signed_int

(* [decide spec h]: a fresh engine of [spec]'s class with [lineup
   monitor]'s default bounds, fed every event of [h], then finalized *)
let decide spec h =
  let e =
    Engine.create ~spec:(Spec.Packed spec) ~min_batch:Engine.default_min_batch
      ~max_window:Engine.default_max_window
  in
  List.iter (Engine.feed e) (History.events h);
  Engine.finalize e

(* ---------------- monitor vs the Wing–Gong oracle ---------------- *)

let monitor_agrees ~name ~spec ~insert ~remove =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:500 seed_arb (fun seed ->
         let rng = Random.State.make [| seed |] in
         let h = interleave rng (random_lifo_fifo_ops rng ~insert ~remove) in
         match decide spec h, Lin_check.decide spec h with
         | Monitor.Accept, Monitor.Accept | Monitor.Reject, Monitor.Reject -> true
         | Monitor.Unsupported _, _ ->
           (* distinct insert values + complete histories: the monitor must
              always be decisive here *)
           false
         | _, Monitor.Unsupported _ -> false (* tiny histories never overflow *)
         | Monitor.Accept, Monitor.Reject | Monitor.Reject, Monitor.Accept -> false))

let monitor_props =
  [
    monitor_agrees ~name:"queue monitor agrees with the oracle (random histories)"
      ~spec:Specs.queue ~insert:"Enqueue" ~remove:"TryDequeue";
    monitor_agrees ~name:"stack monitor agrees with the oracle (random histories)"
      ~spec:Specs.stack ~insert:"Push" ~remove:"TryPop";
  ]

(* deterministic corner cases, so a qcheck seed change cannot hide them *)
let monitor_units =
  let u = Value.unit in
  [
    test "monitor: FIFO inversion rejected" (fun () ->
        let h =
          history
            [
              call 0 0 "Enqueue" ~arg:(Value.int 1) (); ret 0 0 u;
              call 0 1 "Enqueue" ~arg:(Value.int 2) (); ret 0 1 u;
              call 1 0 "TryDequeue" (); ret 1 0 (Value.int 2);
              call 1 1 "TryDequeue" (); ret 1 1 (Value.int 1);
            ]
        in
        Alcotest.(check bool) "rejected" true (decide Specs.queue h = Monitor.Reject);
        Alcotest.check verdict "oracle agrees" Spec.Reject (Lin_check.decide Specs.queue h));
    test "monitor: covered empty dequeue rejected" (fun () ->
        let h =
          history
            [
              call 0 0 "Enqueue" ~arg:(Value.int 7) (); ret 0 0 u;
              call 1 0 "TryDequeue" (); ret 1 0 Value.Fail;
            ]
        in
        Alcotest.(check bool) "rejected" true (decide Specs.queue h = Monitor.Reject));
    test "monitor: overlapping enqueues accept either dequeue order" (fun () ->
        let h =
          history
            [
              call 0 0 "Enqueue" ~arg:(Value.int 1) ();
              call 1 0 "Enqueue" ~arg:(Value.int 2) ();
              ret 0 0 u; ret 1 0 u;
              call 0 1 "TryDequeue" (); ret 0 1 (Value.int 2);
              call 1 1 "TryDequeue" (); ret 1 1 (Value.int 1);
            ]
        in
        Alcotest.(check bool) "accepted" true (decide Specs.queue h = Monitor.Accept));
    test "monitor: LIFO pop order rejected on a queue, accepted on a stack" (fun () ->
        let events insert remove =
          [
            call 0 0 insert ~arg:(Value.int 1) (); ret 0 0 u;
            call 0 1 insert ~arg:(Value.int 2) (); ret 0 1 u;
            call 1 0 remove (); ret 1 0 (Value.int 2);
            call 1 1 remove (); ret 1 1 (Value.int 1);
          ]
        in
        Alcotest.(check bool) "stack accepts" true
          (decide Specs.stack (history (events "Push" "TryPop")) = Monitor.Accept);
        Alcotest.(check bool) "queue rejects" true
          (decide Specs.queue (history (events "Enqueue" "TryDequeue")) = Monitor.Reject));
    test "monitor: pending operation is Unsupported" (fun () ->
        let h =
          history ~stuck:true [ call 0 0 "Enqueue" ~arg:(Value.int 1) (); ret 0 0 u; call 1 0 "TryDequeue" () ]
        in
        match decide Specs.queue h with
        | Monitor.Unsupported _ -> ()
        | _ -> Alcotest.fail "expected Unsupported on a pending op");
    test "monitor: a value removed twice, then inserted again, is Unsupported" (fun () ->
        (* The second dequeue of 1 is called before the second enqueue of
           1 and returns after it: linearizable, but the value is
           ambiguous. The engine must answer Unsupported, never Reject. *)
        let h =
          history
            [
              call 0 0 "Enqueue" ~arg:(Value.int 1) (); ret 0 0 u;
              call 0 1 "TryDequeue" (); ret 0 1 (Value.int 1);
              call 0 2 "TryDequeue" ();
              call 1 0 "Enqueue" ~arg:(Value.int 1) (); ret 1 0 u;
              ret 0 2 (Value.int 1);
            ]
        in
        Alcotest.check verdict "the oracle accepts" Spec.Accept (Lin_check.decide Specs.queue h);
        match decide Specs.queue h with
        | Monitor.Unsupported _ -> ()
        | v -> Alcotest.failf "expected Unsupported, got %a" (Alcotest.pp verdict) v);
  ]

(* ---------------- per-key engine vs the whole-history oracle ---------------- *)

let pcomp_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pcomp agrees with the whole-history oracle (random set histories)"
         ~count:500 seed_arb (fun seed ->
             let rng = Random.State.make [| seed + 31 |] in
             let h = interleave rng (random_set_ops rng) in
             match decide Specs.key_set h, Lin_check.decide Specs.key_set h with
             | Spec.Accept, Spec.Accept | Spec.Reject, Spec.Reject -> true
             | Spec.Unsupported _, _ -> false (* every op here is keyed *)
             | _ -> false));
  ]

(* every history the harness actually produces for an adapter *)
let explore_histories adapter test ~cap =
  let histories = ref [] in
  let config = { Explore.default_config with Explore.max_executions = Some cap } in
  let _ =
    Harness.run_phase config ~adapter ~test ~on_history:(fun r ->
        histories := r.Harness.history :: !histories;
        `Continue)
  in
  !histories

let engine_harness_tests =
  let check_adapter name adapter spec columns =
    test (Fmt.str "the engine agrees with the oracle on every explored %s history" name)
      (fun () ->
        let histories = explore_histories adapter (Test_matrix.make columns) ~cap:400 in
        let decided = ref 0 in
        List.iter
          (fun h ->
            if not (History.is_stuck h) then
              match decide spec h with
              | Spec.Unsupported _ -> () (* an op outside the engine's fragment *)
              | (Spec.Accept | Spec.Reject) as v ->
                incr decided;
                Alcotest.check verdict "the oracle agrees" v (Lin_check.decide spec h))
          histories;
        Alcotest.(check bool) "some histories were decided" true (!decided > 0))
  in
  [
    check_adapter "ConcurrentQueue" Conc.Concurrent_queue.correct Specs.queue
      [ [ inv_int "Enqueue" 200; inv "TryDequeue" ]; [ inv_int "Enqueue" 400; inv "TryDequeue" ] ];
    check_adapter "ConcurrentQueue (Pre)" Conc.Concurrent_queue.pre Specs.queue
      [ [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]; [ inv "TryDequeue"; inv "TryDequeue" ] ];
    check_adapter "MichaelScottQueue" Conc.Michael_scott_queue.adapter Specs.queue
      [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv_int "Enqueue" 2; inv "TryDequeue" ] ];
    check_adapter "SegmentQueue" Conc.Segment_queue.adapter Specs.queue
      [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv_int "Enqueue" 2; inv "TryDequeue" ] ];
    check_adapter "ConcurrentStack" Conc.Concurrent_stack.correct Specs.stack
      [ [ inv_int "Push" 1; inv "TryPop" ]; [ inv_int "Push" 2; inv "TryPop" ] ];
    check_adapter "LazyListSet" Conc.Lazy_list_set.correct Specs.key_set
      [ [ inv_int "Add" 10; inv_int "Remove" 10 ]; [ inv_int "Add" 15; inv_int "Contains" 10 ] ];
    check_adapter "LazyListSet (Pre)" Conc.Lazy_list_set.pre Specs.key_set
      [ [ inv_int "Add" 10; inv_int "Remove" 10 ]; [ inv_int "Contains" 10; inv_int "Add" 10 ] ];
    check_adapter "ConcurrentDictionary" Conc.Concurrent_dictionary.adapter Specs.dictionary
      [ [ inv_int "TryAdd" 10; inv_int "TryGet" 10 ]; [ inv_int "Set" 10; inv_int "TryRemove" 10 ] ];
  ]

(* ---------------- Check.run: verdicts ---------------- *)

(* name, adapter, test, whether the check fails, distinct phase-2
   histories *)
let e2e_matrix =
  [
    (* correct collection classes *)
    "ConcurrentQueue", Conc.Concurrent_queue.correct,
    Test_matrix.make
      [ [ inv_int "Enqueue" 200; inv "TryDequeue" ]; [ inv_int "Enqueue" 400; inv "TryDequeue" ] ],
    false, 126;
    "ConcurrentStack", Conc.Concurrent_stack.correct,
    Test_matrix.make [ [ inv_int "Push" 1; inv "TryPop" ]; [ inv_int "Push" 2; inv "TryPop" ] ],
    false, 134;
    "LazyListSet", Conc.Lazy_list_set.correct,
    Test_matrix.make
      [ [ inv_int "Add" 10; inv_int "Remove" 10 ]; [ inv_int "Add" 15; inv_int "Contains" 10 ] ],
    false, 118;
    "ConcurrentDictionary", Conc.Concurrent_dictionary.adapter,
    Test_matrix.make
      [ [ inv_int "TryAdd" 10; inv_int "TryGet" 10 ]; [ inv_int "Set" 20; inv_int "TryRemove" 20 ] ],
    false, 70;
    (* seeded bugs *)
    "ConcurrentQueue (Pre)", Conc.Concurrent_queue.pre,
    Test_matrix.make
      [ [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]; [ inv "TryDequeue"; inv "TryDequeue" ] ],
    true, 6;
    "ConcurrentStack (Pre)", Conc.Concurrent_stack.pre,
    Test_matrix.make [ [ inv_int "Push" 1; inv_int "Push" 2 ]; [ inv_int "TryPopRange" 2 ] ],
    true, 6;
    (* the seeded set bug needs a non-empty init *)
    "LazyListSet (Pre)", Conc.Lazy_list_set.pre,
    Test_matrix.make ~init:[ inv_int "Add" 10 ]
      [ [ inv_int "Remove" 10 ]; [ inv_int "Add" 15; inv_int "Contains" 15 ] ],
    true, 6;
    "ConcurrentDictionary (Pre)", Conc.Concurrent_dictionary.pre,
    Test_matrix.make [ [ inv_int "TryAdd" 10; inv_int "TryAdd" 20; inv "Clear" ]; [ inv "Count" ] ],
    true, 4;
    (* blocking classes: Definition 2 on stuck histories *)
    "ManualResetEvent (lost signal)", Conc.Manual_reset_event.lost_signal,
    Test_matrix.make [ [ inv "Wait" ]; [ inv "Set" ] ], true, 3;
    "SemaphoreSlim", Conc.Semaphore_slim.correct,
    Test_matrix.make [ [ inv "Wait" ]; [ inv "Release" ] ], false, 5;
  ]

let e2e_tests =
  List.map
    (fun (name, adapter, matrix, expect_fail, distinct) ->
      test (Fmt.str "check verdict and distinct histories: %s" name) (fun () ->
          let r = Check.run adapter matrix in
          Alcotest.(check bool) "fails" expect_fail (Check.failed r);
          Alcotest.(check bool) "passes" (not expect_fail) (Check.passed r);
          Alcotest.(check int) "distinct histories" distinct
            (match r.Check.phase2 with Some p -> p.Check.histories | None -> -1)))
    e2e_matrix

(* ---------------- the 62-operation boundary ---------------- *)

let oversize_tests =
  [
    test "Lin_check: 63 operations is a structured Unsupported" (fun () ->
        let events =
          List.concat
            (List.init 63 (fun i ->
                 [ call 0 i "Enqueue" ~arg:(Value.int i) (); ret 0 i Value.unit ]))
        in
        let h = history events in
        (match Lin_check.decide Specs.queue h with
         | Spec.Unsupported _ -> ()
         | Spec.Accept | Spec.Reject -> Alcotest.fail "expected Unsupported");
        match Lin_check.linearization Specs.queue h with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "linearization must raise");
    test "pcomp decides a 63-operation history the direct search refuses" (fun () ->
        (* alternate Add/Remove on two keys: each key sees ~32 ops in
           chunks far under the 62-op direct limit, so the per-key engine
           succeeds where the whole-history search cannot even start *)
        let events =
          List.concat
            (List.init 63 (fun i ->
                 let key = 1 + (i mod 2) in
                 let name = if i mod 4 < 2 then "Add" else "Remove" in
                 [ call 0 i name ~arg:(Value.int key) (); ret 0 i (Value.bool true) ]))
        in
        let h = history events in
        (match Lin_check.decide Specs.key_set h with
         | Spec.Unsupported _ -> ()
         | _ -> Alcotest.fail "direct search should refuse 63 ops");
        match decide Specs.key_set h with
        | Monitor.Accept -> ()
        | Monitor.Reject -> Alcotest.fail "serial alternation is linearizable"
        | Monitor.Unsupported r -> Alcotest.failf "the per-key engine refused: %s" r);
  ]

(* ---------------- Minimize: cancelled candidates ---------------- *)

let minimize_tests =
  [
    test "reduce skips cancelled candidates (regression)" (fun () ->
        let adapter = Conc.Semaphore_slim.pre in
        let matrix =
          Test_matrix.make [ [ inv "Release" ]; [ inv "Release"; inv "CurrentCount" ] ]
        in
        (* learn exactly how many cancellation polls the initial check
           makes, then hand [reduce] a token that fires just after: the
           initial check completes (and fails), every candidate check is
           cancelled at its first boundary *)
        let polls = ref 0 in
        let counting () = incr polls; false in
        let r0 = Check.run ~cancelled:counting adapter matrix in
        Alcotest.(check bool) "the seed test fails" true (Check.failed r0);
        let budget = !polls in
        let n = ref 0 in
        let token () = incr n; !n > budget in
        let r = Minimize.reduce ~cancelled:token adapter matrix in
        (* the fixed descent returns the original failing test; the broken
           one recursed onto cancelled candidates and bottomed out with a
           Cancelled (non-failing) result on a test never seen to fail *)
        Alcotest.(check bool) "result is a seen failure" true (Check.failed r.Minimize.check);
        Alcotest.(check bool) "more than one check was spent" true (r.Minimize.checks_spent > 1);
        Alcotest.(check string) "the original test is returned"
          (Fmt.str "%a" Test_matrix.pp matrix)
          (Fmt.str "%a" Test_matrix.pp r.Minimize.test));
    test "reduce returns unreduced on an initially-cancelled check" (fun () ->
        let adapter = Conc.Semaphore_slim.pre in
        let matrix =
          Test_matrix.make [ [ inv "Release" ]; [ inv "Release"; inv "CurrentCount" ] ]
        in
        let r = Minimize.reduce ~cancelled:(fun () -> true) adapter matrix in
        Alcotest.(check bool) "no verdict" true (Check.cancelled r.Minimize.check);
        Alcotest.(check int) "exactly one check spent" 1 r.Minimize.checks_spent);
  ]

let tests =
  monitor_props @ monitor_units @ pcomp_props @ engine_harness_tests @ e2e_tests @ oversize_tests
  @ minimize_tests
