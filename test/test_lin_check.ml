open Helpers
module Value = Lineup_value.Value
module History = Lineup_history.History
module Lin_check = Lineup_spec.Lin_check
module Specs = Lineup_spec.Specs

let u = Value.unit

(* §2.2.1: the Counter1 history — two completed Incs, Get returns 1. *)
let counter1_history =
  history
    [
      call 0 0 "Inc" ();
      call 1 0 "Inc" ();
      ret 0 0 u;
      ret 1 0 u;
      call 0 1 "Get" ();
      ret 0 1 (Value.int 1);
    ]

(* §2.2.2 / Fig. 4: the Counter2 stuck history — inc, get(1), then a second
   inc that blocks forever. *)
let counter2_history =
  history ~stuck:true
    [
      call 0 0 "Inc" ();
      ret 0 0 u;
      call 0 1 "Get" ();
      ret 0 1 (Value.int 1);
      call 1 0 "Inc" ();
    ]

let suite =
  [
    test "counter1 history refuted (Def. 1)" (fun () ->
        Alcotest.check verdict "not linearizable" Spec.Reject
          (Lin_check.decide Specs.counter counter1_history));
    test "counter1 history with Get=2 accepted" (fun () ->
        let h =
          history
            [
              call 0 0 "Inc" ();
              call 1 0 "Inc" ();
              ret 0 0 u;
              ret 1 0 u;
              call 0 1 "Get" ();
              ret 0 1 (Value.int 2);
            ]
        in
        Alcotest.check verdict "linearizable" Spec.Accept (Lin_check.decide Specs.counter h);
        match Lin_check.linearization Specs.counter h with
        | Some order -> Alcotest.(check int) "order length" 3 (List.length order)
        | None -> Alcotest.fail "expected a linearization");
    test "Fig. 4: Counter2 stuck history passes Def. 1" (fun () ->
        (* complete(H) drops the pending inc; the remaining history is
           serial and valid — exactly the paper's point *)
        Alcotest.check verdict "Def. 1 accepts" Spec.Accept
          (Lin_check.decide Specs.counter (History.complete counter2_history)));
    test "Fig. 4: Counter2 stuck history fails Def. 2" (fun () ->
        match Spec.first_unjustified (Lin_check.decide Specs.counter) counter2_history with
        | Some (op, Spec.Reject) ->
          Alcotest.(check string) "pending op" "Inc" op.Lineup_history.Op.inv.Lineup_history.Invocation.name
        | Some (_, v) -> Alcotest.failf "expected Reject, got %a" (Alcotest.pp verdict) v
        | None -> Alcotest.fail "generalized linearizability should refute this");
    test "decide dispatches on stuckness" (fun () ->
        (* the same events: Definition 2 on the stuck H[e], Definition 1
           once the pending call is dropped *)
        Alcotest.check verdict "stuck refuted" Spec.Reject
          (Lin_check.decide Specs.counter counter2_history);
        Alcotest.check verdict "complete accepted" Spec.Accept
          (Lin_check.decide Specs.counter (History.complete counter2_history));
        Alcotest.check verdict "full refuted" Spec.Reject
          (Lin_check.decide Specs.counter counter1_history));
    test "legitimately blocked dec is justified" (fun () ->
        let h = history ~stuck:true [ call 0 0 "Dec" () ] in
        Alcotest.(check bool) "justified" true (holds (Lin_check.decide Specs.counter) h));
    test "dec blocked after inc is NOT justified" (fun () ->
        let h =
          history ~stuck:true [ call 1 0 "Inc" (); ret 1 0 u; call 0 0 "Dec" () ]
        in
        Alcotest.(check bool) "unjustified" false (holds (Lin_check.decide Specs.counter) h));
    test "pending call may be completed by the extension" (fun () ->
        (* Enqueue pending, but TryDequeue already observed its value: the
           witness must linearize the pending enqueue (Def. 1's extension) *)
        let h =
          history
            [
              call 0 0 "Enqueue" ~arg:(Value.int 5) ();
              call 1 0 "TryDequeue" ();
              ret 1 0 (Value.int 5);
            ]
        in
        Alcotest.check verdict "linearizable" Spec.Accept (Lin_check.decide Specs.queue h));
    test "pending call cannot justify the impossible" (fun () ->
        let h =
          history
            [ call 0 0 "Enqueue" ~arg:(Value.int 5) (); call 1 0 "TryDequeue" (); ret 1 0 (Value.int 6) ]
        in
        Alcotest.check verdict "refuted" Spec.Reject (Lin_check.decide Specs.queue h));
    test "queue FIFO violation refuted" (fun () ->
        let h =
          history
            [
              call 0 0 "Enqueue" ~arg:(Value.int 1) ();
              ret 0 0 u;
              call 0 1 "Enqueue" ~arg:(Value.int 2) ();
              ret 0 1 u;
              call 1 0 "TryDequeue" ();
              ret 1 0 (Value.int 2);
            ]
        in
        Alcotest.check verdict "refuted" Spec.Reject (Lin_check.decide Specs.queue h));
    test "overlapping enqueues allow either dequeue order" (fun () ->
        let h order =
          history
            [
              call 0 0 "Enqueue" ~arg:(Value.int 1) ();
              call 1 0 "Enqueue" ~arg:(Value.int 2) ();
              ret 0 0 u;
              ret 1 0 u;
              call 0 1 "TryDequeue" ();
              ret 0 1 (Value.int order);
            ]
        in
        Alcotest.check verdict "first" Spec.Accept (Lin_check.decide Specs.queue (h 1));
        Alcotest.check verdict "second" Spec.Accept (Lin_check.decide Specs.queue (h 2)));
    test "decide refuses a stuck history with two pending operations" (fun () ->
        (* a query is a complete history or an H[e]; Definition 2 splits a
           stuck history into its H[e]s first *)
        let h = history ~stuck:true [ call 0 0 "Dec" (); call 1 0 "Dec" () ] in
        (match Lin_check.decide Specs.counter h with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected rejection");
        Alcotest.(check bool) "each H[e] is justified" true
          (holds (Lin_check.decide Specs.counter) h));
    test "empty history is linearizable" (fun () ->
        Alcotest.check verdict "empty" Spec.Accept (Lin_check.decide Specs.counter (history [])));
    test "stuck Take on empty queue is justified" (fun () ->
        let h = history ~stuck:true [ call 0 0 "Take" () ] in
        Alcotest.(check bool) "justified" true (holds (Lin_check.decide Specs.queue) h));
    test "stuck Take after completed Enqueue is NOT justified" (fun () ->
        let h =
          history ~stuck:true
            [ call 1 0 "Enqueue" ~arg:(Value.int 5) (); ret 1 0 u; call 0 0 "Take" () ]
        in
        Alcotest.(check bool) "unjustified" false (holds (Lin_check.decide Specs.queue) h));
    test "stuck Take with overlapping TryDequeue that stole the element is justified" (fun () ->
        let h =
          history ~stuck:true
            [
              call 1 0 "Enqueue" ~arg:(Value.int 5) ();
              ret 1 0 u;
              call 0 0 "Take" ();
              call 1 1 "TryDequeue" ();
              ret 1 1 (Value.int 5);
            ]
        in
        (* H[Take] removes nothing else pending; the witness is
           Enqueue, TryDequeue, then Take blocked on the empty queue *)
        Alcotest.(check bool) "justified" true (holds (Lin_check.decide Specs.queue) h));
  ]

(* Property: random serial executions of a spec are always linearizable, and
   random well-formed interleavings agree between Lin_check and a brute-force
   reference on small sizes. *)
let serial_history_gen spec invs =
  let open QCheck.Gen in
  list_size (int_bound 6) (oneofl invs) >|= fun chosen ->
  let rec go st acc = function
    | [] -> List.rev acc
    | i :: rest -> (
      match spec.Lineup_spec.Spec.step st i with
      | Lineup_spec.Spec.Return (v, st') -> go st' ((i, v) :: acc) rest
      | Lineup_spec.Spec.Blocked -> List.rev acc)
  in
  go spec.Lineup_spec.Spec.initial [] chosen

let props =
  let mk_history pairs =
    (* turn (inv, resp) list into a serial single-thread history *)
    History.make
      (List.concat
         (List.mapi
            (fun i (iv, v) ->
              [ Lineup_history.Event.call ~tid:0 ~op_index:i iv;
                Lineup_history.Event.return ~tid:0 ~op_index:i v ])
            pairs))
  in
  let queue_invs =
    [ inv_int "Enqueue" 1; inv_int "Enqueue" 2; inv "TryDequeue"; inv "TryPeek"; inv "Count" ]
  in
  let counter_invs = [ inv "Inc"; inv "Get"; inv_int "Set" 3 ] in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"serial queue executions are linearizable" ~count:200
         (QCheck.make (serial_history_gen Specs.queue queue_invs))
         (fun pairs -> Lin_check.decide Specs.queue (mk_history pairs) = Spec.Accept));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"serial counter executions are linearizable" ~count:200
         (QCheck.make (serial_history_gen Specs.counter counter_invs))
         (fun pairs -> Lin_check.decide Specs.counter (mk_history pairs) = Spec.Accept));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"corrupting a response breaks linearizability or is detectable"
         ~count:200
         (QCheck.make (serial_history_gen Specs.counter [ inv "Inc"; inv "Get" ]))
         (fun pairs ->
           (* bump every Get response by 1: if any Get exists, the serial
              history must become non-linearizable *)
           let corrupted =
             List.map
               (fun ((iv : Lineup_history.Invocation.t), v) ->
                 match iv.name, v with
                 | "Get", Value.Int n -> iv, Value.int (n + 1)
                 | _ -> iv, v)
               pairs
           in
           let has_get =
             List.exists (fun ((iv : Lineup_history.Invocation.t), _) -> iv.name = "Get") pairs
           in
           (not has_get) || Lin_check.decide Specs.counter (mk_history corrupted) = Spec.Reject));
  ]

let tests = suite @ props
