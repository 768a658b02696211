type expected =
  | Pass
  | Bug of string
  | Intentional_nondeterminism of string
  | Intentional_nonlinearizability of string

type entry = {
  adapter : Lineup.Adapter.t;
  class_name : string;
  version : [ `Beta2 | `Pre ];
  expected : expected;
  defect : string option;
  min_dims : (int * int) option;
  regression : Lineup.Test_matrix.t option;
}

let entry ?defect ?min_dims ?regression ~version ~expected class_name adapter =
  let regression = Option.map Lineup.Test_matrix.make regression in
  { adapter; class_name; version; expected; defect; min_dims; regression }

let inv = Util.inv
let inv_int = Util.inv_int

let all =
  [
    (* known-good Beta2 subjects *)
    entry ~version:`Beta2 ~expected:Pass "LazyInit" Lazy_init.correct;
    entry ~version:`Beta2 ~expected:Pass "ManualResetEvent" Manual_reset_event.correct;
    entry ~version:`Beta2 ~expected:Pass "SemaphoreSlim" Semaphore_slim.correct;
    entry ~version:`Beta2 ~expected:Pass "CountdownEvent" Countdown_event.correct;
    entry ~version:`Beta2 ~expected:Pass "ConcurrentDictionary" Concurrent_dictionary.adapter;
    entry ~version:`Beta2 ~expected:Pass "ConcurrentQueue" Concurrent_queue.correct;
    entry ~version:`Beta2 ~expected:Pass "ConcurrentStack" Concurrent_stack.correct;
    entry ~version:`Beta2 ~expected:Pass "ConcurrentLinkedList" Concurrent_linked_list.adapter;
    entry ~version:`Beta2 ~expected:Pass "TaskCompletionSource" Task_completion_source.correct;
    entry ~version:`Beta2 ~expected:Pass "MichaelScottQueue" Michael_scott_queue.adapter;
    entry ~version:`Beta2 ~expected:Pass "SegmentQueue" Segment_queue.adapter;
    entry ~version:`Beta2 ~expected:Pass "BlockingCollection" Blocking_collection.fifo;
    entry ~version:`Beta2 ~expected:Pass "BlockingCollection" Blocking_collection.fifo_bounded;
    entry ~version:`Beta2 ~expected:Pass "ReaderWriterLockSlim" Rw_lock.correct;
    entry ~version:`Beta2 ~expected:Pass "LazyListSet" Lazy_list_set.correct;
    (* seeded bugs (root causes A-G) *)
    entry ~version:`Pre ~expected:(Bug "A")
      ~defect:"Set drops the signal when its single CAS attempt races a waiter registration"
      ~min_dims:(1, 2) ~regression:[ [ inv "Wait" ]; [ inv "Set" ] ]
      "ManualResetEvent" Manual_reset_event.lost_signal;
    entry ~version:`Pre ~expected:(Bug "A'")
      ~defect:"Wait computes the CAS new-value from a re-read of the shared state (the paper's typo)"
      ~min_dims:(2, 2)
      ~regression:[ [ inv "Wait"; inv "IsSet" ]; [ inv "Set"; inv "Reset" ] ]
      "ManualResetEvent" Manual_reset_event.cas_typo;
    entry ~version:`Pre ~expected:(Bug "B")
      ~defect:"TryDequeue's lock acquire can time out and is reported as an empty queue (Fig. 1)"
      ~min_dims:(2, 2)
      ~regression:
        [ [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]; [ inv "TryDequeue"; inv "TryDequeue" ] ]
      "ConcurrentQueue" Concurrent_queue.pre;
    entry ~version:`Pre ~expected:(Bug "C")
      ~defect:"Release increments the count outside the lock (lost update)" ~min_dims:(1, 2)
      ~regression:[ [ inv "Release" ]; [ inv "Release" ] ]
      "SemaphoreSlim" Semaphore_slim.pre;
    entry ~version:`Pre ~expected:(Bug "D")
      ~defect:"Signal decrements with an unsynchronized read-modify-write (lost signal)"
      ~min_dims:(1, 2) ~regression:[ [ inv "Signal" ]; [ inv "Signal" ] ]
      "CountdownEvent" Countdown_event.pre;
    entry ~version:`Pre ~expected:(Bug "E")
      ~defect:"TryPopRange pops one CAS at a time; the range is not an atomic segment"
      ~min_dims:(2, 2)
      ~regression:[ [ inv_int "Push" 1; inv_int "Push" 2 ]; [ inv_int "TryPopRange" 2 ] ]
      "ConcurrentStack" Concurrent_stack.pre;
    entry ~version:`Pre ~expected:(Bug "F")
      ~defect:"double-checked init publishes the flag before the value" ~min_dims:(1, 2)
      ~regression:[ [ inv "Value" ]; [ inv "Value" ] ]
      "LazyInit" Lazy_init.pre;
    entry ~version:`Pre ~expected:(Bug "G")
      ~defect:"TrySetResult is check-then-act; two callers can both win" ~min_dims:(1, 2)
      ~regression:[ [ inv_int "TrySetResult" 10 ]; [ inv_int "TrySetResult" 20 ] ]
      "TaskCompletionSource" Task_completion_source.pre;
    (* intentional nondeterminism (H, I, J) *)
    entry ~version:`Beta2 ~expected:(Intentional_nondeterminism "H")
      ~defect:"TryTake skips segments whose lock is busy; may fail or take a surprising element"
      ~min_dims:(2, 2)
      ~regression:[ [ inv_int "Add" 10; inv_int "Add" 20 ]; [ inv "TryTake" ] ]
      "ConcurrentBag" Concurrent_bag.adapter;
    entry ~version:`Beta2 ~expected:(Intentional_nondeterminism "I+J")
      ~defect:"Count and TryTake skip busy segments; both can miss present elements"
      ~min_dims:(2, 2)
      ~regression:[ [ inv_int "Add" 200; inv_int "Add" 400 ]; [ inv "Count" ] ]
      "BlockingCollection" Blocking_collection.segmented;
    (* intentional nonlinearizability (K, L) *)
    entry ~version:`Beta2 ~expected:(Intentional_nonlinearizability "K")
      ~defect:"Cancel's callback effects can land after Cancel returns (asynchronous method)"
      ~min_dims:(2, 1)
      ~regression:[ [ inv "Cancel" ]; [ inv "IsCancellationRequested" ] ]
      "CancellationTokenSource" Cancellation_token_source.adapter;
    entry ~version:`Beta2 ~expected:(Intentional_nonlinearizability "L")
      ~defect:"SignalAndWait is equivalent to no serial execution (classic barrier)"
      ~min_dims:(1, 2) ~regression:[ [ inv "SignalAndWait" ]; [ inv "SignalAndWait" ] ]
      "Barrier" Barrier.adapter;
    entry ~version:`Pre ~expected:(Bug "O")
      ~defect:"Clear empties stripes one lock at a time; observers see half-cleared tables"
      ~min_dims:(1, 2)
      ~regression:[ [ inv_int "TryAdd" 10; inv_int "TryAdd" 20; inv "Clear" ]; [ inv "Count" ] ]
      "ConcurrentDictionary" Concurrent_dictionary.pre;
    entry ~version:`Pre ~expected:(Bug "M")
      ~defect:"EnterRead's fast path increments the reader count with an unsynchronized RMW"
      ~min_dims:(1, 2)
      ~regression:[ [ inv "EnterRead" ]; [ inv "EnterRead"; inv "CurrentReadCount" ] ]
      "ReaderWriterLockSlim" Rw_lock.pre;
    entry ~version:`Pre ~expected:(Bug "N")
      ~defect:"Remove unlinks without marking; a validated insert after the victim is lost"
      ~min_dims:(2, 2)
      ~regression:
        [ [ inv_int "Add" 1; inv_int "Add" 2 ]; [ inv_int "Remove" 1 ]; [ inv_int "Contains" 2 ] ]
      "LazyListSet" Lazy_list_set.pre;
    (* pedagogical counters of Section 2.2 *)
    entry ~version:`Pre ~expected:(Bug "Counter1")
      ~defect:"inc is an unsynchronized read-modify-write (Section 2.2.1)" ~min_dims:(1, 2)
      ~regression:[ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]
      "Counter" Counters.buggy_unlocked;
    entry ~version:`Beta2 ~expected:Pass "Counter" Counters.correct;
    (* the store->load litmus: SC-correct, weak-memory-sensitive. Both
       variants pass the default (sequentially consistent) sweep; the
       fence-free one loses updates only under `--memory tso`/`pso`. *)
    entry ~version:`Beta2 ~expected:Pass "Dekker" Dekker.fenced;
    entry ~version:`Pre ~expected:Pass
      ~defect:
        "enter omits the store->load fence: mutual exclusion fails under TSO (visible to \
         --memory tso/pso only — every SC interleaving passes)"
      ~min_dims:(2, 2) "Dekker" Dekker.fence_free;
  ]

let table2_rows = all
let correct_entries = List.filter (fun e -> e.expected = Pass) all

let failing_entries =
  List.filter_map
    (fun e ->
      match e.expected with
      | Pass -> None
      | Bug id | Intentional_nondeterminism id | Intentional_nonlinearizability id ->
        Some (id, e))
    all

let find name = List.find (fun e -> e.adapter.Lineup.Adapter.name = name) all
