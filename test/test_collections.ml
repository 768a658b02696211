(* Sequential unit tests of every implementation under test (driven through
   the inline effect handler), plus the full Line-Up sweep of the registry:
   every known-good subject must PASS a generic test and every failing entry
   must FAIL its regression test — the Table 2 ground truth. *)

open Helpers
module Value = Lineup_value.Value
module Rt = Lineup_runtime.Rt
module Exec_ctx = Lineup_runtime.Exec_ctx
module Conc = Lineup_conc
open Lineup

(* Invoke a sequence of operations sequentially on a fresh instance. *)
let seq_run (adapter : Adapter.t) invs =
  Exec_ctx.reset ();
  Exec_ctx.set_current_tid 0;
  Rt.run_inline (fun () ->
      let inst = adapter.Adapter.create () in
      List.map inst.Adapter.invoke invs)

let check_seq name adapter invs expected () =
  let actual = seq_run adapter invs in
  Alcotest.(check (list value)) name expected actual

let vi = Value.int
let vu = Value.unit
let vb = Value.bool
let vf = Value.Fail

let sequential =
  [
    test "queue FIFO order"
      (check_seq "queue" Conc.Concurrent_queue.correct
         [ inv_int "Enqueue" 1; inv_int "Enqueue" 2; inv "TryDequeue"; inv "TryDequeue"; inv "TryDequeue" ]
         [ vu; vu; vi 1; vi 2; vf ]);
    test "queue observers"
      (check_seq "queue" Conc.Concurrent_queue.correct
         [ inv "IsEmpty"; inv_int "Enqueue" 7; inv "IsEmpty"; inv "Count"; inv "TryPeek"; inv "ToArray" ]
         [ vb true; vu; vb false; vi 1; vi 7; Value.list [ vi 7 ] ]);
    test "queue pre is sequentially correct"
      (check_seq "queue-pre" Conc.Concurrent_queue.pre
         [ inv_int "Enqueue" 1; inv "TryDequeue"; inv "TryDequeue" ]
         [ vu; vi 1; vf ]);
    test "michael-scott queue FIFO"
      (check_seq "msq" Conc.Michael_scott_queue.adapter
         [ inv "IsEmpty"; inv_int "Enqueue" 1; inv_int "Enqueue" 2; inv "TryPeek"; inv "TryDequeue";
           inv "TryDequeue"; inv "TryDequeue"; inv "IsEmpty" ]
         [ vb true; vu; vu; vi 1; vi 1; vi 2; vf; vb true ]);
    test "stack LIFO order"
      (check_seq "stack" Conc.Concurrent_stack.correct
         [ inv_int "Push" 1; inv_int "Push" 2; inv "TryPeek"; inv "TryPop"; inv "TryPop"; inv "TryPop" ]
         [ vu; vu; vi 2; vi 2; vi 1; vf ]);
    test "stack ranges"
      (check_seq "stack" Conc.Concurrent_stack.correct
         [
           inv ~arg:(Value.list [ vi 8; vi 9 ]) "PushRange";
           inv "Count";
           inv_int "TryPopRange" 2;
           inv "Count";
         ]
         [ vu; vi 2; Value.list [ vi 8; vi 9 ]; vi 0 ]);
    test "buggy stack range is sequentially identical"
      (check_seq "stack-pre" Conc.Concurrent_stack.pre
         [ inv_int "Push" 1; inv_int "Push" 2; inv_int "TryPopRange" 2 ]
         [ vu; vu; Value.list [ vi 2; vi 1 ] ]);
    test "bag add/take from own segment"
      (check_seq "bag" Conc.Concurrent_bag.adapter
         [ inv_int "Add" 10; inv_int "Add" 20; inv "Count"; inv "TryTake"; inv "TryTake"; inv "TryTake" ]
         [ vu; vu; vi 2; vi 20; vi 10; vf ]);
    test "bag observers"
      (check_seq "bag" Conc.Concurrent_bag.adapter
         [ inv "IsEmpty"; inv_int "Add" 10; inv "IsEmpty"; inv "TryPeek"; inv "ToArray" ]
         [ vb true; vu; vb false; vi 10; Value.list [ vi 10 ] ]);
    test "dictionary add/get/remove"
      (check_seq "dict" Conc.Concurrent_dictionary.adapter
         [
           inv_int "TryAdd" 10; inv_int "TryAdd" 10; inv_int "TryGet" 10; inv_int "ContainsKey" 10;
           inv_int "TryRemove" 10; inv_int "ContainsKey" 10; inv_int "TryGet" 10;
         ]
         [ vb true; vb false; vi 1000; vb true; vb true; vb false; vf ]);
    test "dictionary indexer and update"
      (check_seq "dict" Conc.Concurrent_dictionary.adapter
         [
           inv_int "Set" 20; inv_int "Get" 20; inv_int "TryUpdate" 20; inv_int "Get" 20;
           inv_int "TryUpdate" 10; inv "Count"; inv "Clear"; inv "IsEmpty";
         ]
         [ vu; vi 2001; vb true; vi 2002; vb false; vi 1; vu; vb true ]);
    test "blocking collection fifo take/complete"
      (check_seq "bc" Conc.Blocking_collection.fifo
         [
           inv_int "Add" 200; inv "Take"; inv "TryTake"; inv "CompleteAdding"; inv_int "Add" 400;
           inv "IsAddingCompleted"; inv "IsCompleted"; inv "Take";
         ]
         [ vu; vi 200; vf; vu; vf; vb true; vb true; vf ]);
    test "blocking collection segmented basics"
      (check_seq "bcs" Conc.Blocking_collection.segmented
         [ inv_int "Add" 200; inv "Count"; inv "TryTake"; inv "TryTake"; inv "CompleteAdding"; inv "IsCompleted" ]
         [ vu; vi 1; vi 200; vf; vu; vb true ]);
    test "semaphore counting"
      (check_seq "sem" Conc.Semaphore_slim.correct
         [ inv "CurrentCount"; inv "Release"; inv "Release"; inv "TryWait"; inv "CurrentCount"; inv_int "ReleaseMany" 2; inv "CurrentCount" ]
         [ vi 0; vi 0; vi 1; vb true; vi 1; vi 1; vi 3 ]);
    test "semaphore wait consumes"
      (check_seq "sem" Conc.Semaphore_slim.correct
         [ inv "Release"; inv "Wait"; inv "TryWait" ]
         [ vi 0; vu; vb false ]);
    test "countdown event reaches zero"
      (check_seq "cde" Conc.Countdown_event.correct
         [ inv "CurrentCount"; inv "IsSet"; inv "Signal"; inv "IsSet"; inv "Signal"; inv "IsSet"; inv "Signal"; inv "Wait" ]
         [ vi 2; vb false; vb false; vb false; vb true; vb true; vf; vu ]);
    test "countdown add count"
      (check_seq "cde" Conc.Countdown_event.correct
         [ inv "AddCount"; inv "CurrentCount"; inv "Signal"; inv "Signal"; inv "Signal"; inv "TryAddCount" ]
         [ vu; vi 3; vb false; vb false; vb true; vb false ]);
    test "manual reset event set/reset"
      (check_seq "mre" Conc.Manual_reset_event.correct
         [ inv "IsSet"; inv "Set"; inv "IsSet"; inv "Wait"; inv "TryWait"; inv "Reset"; inv "IsSet"; inv "TryWait" ]
         [ vb false; vu; vb true; vu; vb true; vu; vb false; vb false ]);
    test "lazy initializes once"
      (check_seq "lazy" Conc.Lazy_init.correct
         [ inv "IsValueCreated"; inv "ToString"; inv "Value"; inv "Value"; inv "IsValueCreated"; inv "ToString" ]
         [ vb false; Value.str "<uncreated>"; vi 1; vi 1; vb true; Value.str "1" ]);
    test "lazy pre is sequentially identical"
      (check_seq "lazy-pre" Conc.Lazy_init.pre
         [ inv "Value"; inv "Value"; inv "IsValueCreated" ]
         [ vi 1; vi 1; vb true ]);
    test "task completion source single winner"
      (check_seq "tcs" Conc.Task_completion_source.correct
         [
           inv "IsCompleted"; inv "GetResult"; inv_int "TrySetResult" 10; inv_int "TrySetResult" 20;
           inv "TrySetCanceled"; inv "GetResult"; inv "IsCompleted"; inv "Wait";
         ]
         [ vb false; vf; vb true; vb false; vb false; vi 10; vb true; vu ]);
    test "task completion source cancel"
      (check_seq "tcs" Conc.Task_completion_source.correct
         [ inv "TrySetCanceled"; inv_int "TrySetResult" 10; inv "GetResult" ]
         [ vb true; vb false; vf ]);
    test "cancellation token source drains serially"
      (check_seq "cts" Conc.Cancellation_token_source.adapter
         [ inv "CanBeCanceled"; inv "IsCancellationRequested"; inv "Cancel"; inv "IsCancellationRequested" ]
         (* under the inline handler Choose picks 0: the callback is not
            synchronous, so the first read after Cancel still sees the
            pending flag being drained *)
         [ vb true; vb false; vu; vb false ]);
    test "cancellation token source second read observes the drain"
      (check_seq "cts" Conc.Cancellation_token_source.adapter
         [ inv "Cancel"; inv "IsCancellationRequested"; inv "IsCancellationRequested" ]
         [ vu; vb false; vb true ]);
    test "linked list deque semantics"
      (check_seq "cll" Conc.Concurrent_linked_list.adapter
         [
           inv_int "AddFirst" 1; inv_int "AddLast" 2; inv_int "AddFirst" 3; inv "ToArray";
           inv "RemoveFirst"; inv "RemoveLast"; inv "Count"; inv "RemoveFirst"; inv "RemoveFirst";
         ]
         [ vu; vu; vu; Value.list [ vi 3; vi 1; vi 2 ]; vi 3; vi 2; vi 1; vi 1; vf ]);
    test "barrier participants bookkeeping"
      (check_seq "barrier" Conc.Barrier.adapter
         [ inv "ParticipantCount"; inv "AddParticipant"; inv "ParticipantCount"; inv "ParticipantsRemaining"; inv "CurrentPhaseNumber" ]
         [ vi 2; vu; vi 3; vi 3; vi 0 ]);
  ]

(* The registry sweep: ground truth for Table 2. *)
let registry_sweep =
  let generic_test (e : Conc.Registry.entry) =
    let u = Array.of_list e.adapter.Adapter.universe in
    let pick i = u.(i mod Array.length u) in
    Test_matrix.make [ [ pick 0; pick 2 ]; [ pick 1; pick 3 ] ]
  in
  List.map
    (fun (e : Conc.Registry.entry) ->
      test ("registry PASS: " ^ e.adapter.Adapter.name) (fun () ->
          let r = Check.run e.adapter (generic_test e) in
          if not (Check.passed r) then
            Alcotest.failf "%s should pass: %s" e.adapter.Adapter.name (Report.summary r)))
    Conc.Registry.correct_entries
  @ List.map
      (fun (id, (e : Conc.Registry.entry)) ->
        test ("registry FAIL: " ^ e.adapter.Adapter.name) (fun () ->
            match e.regression with
            | None -> Alcotest.failf "root cause %s has no regression test" id
            | Some test ->
              if Check.passed (Check.run e.adapter test) then
                Alcotest.failf "%s should fail its regression test" e.adapter.Adapter.name))
      Conc.Registry.failing_entries
  @ [
      test "registry: no passing entry carries a regression test" (fun () ->
          List.iter
            (fun (e : Conc.Registry.entry) ->
              if Option.is_some e.regression then
                Alcotest.failf "%s passes but has a regression test" e.adapter.Adapter.name)
            Conc.Registry.correct_entries);
    ]

let tests = sequential @ registry_sweep
