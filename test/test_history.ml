open Helpers
module Value = Lineup_value.Value
module History = Lineup_history.History
module Op = Lineup_history.Op
module Event = Lineup_history.Event

(* The history of Fig. 2: H = (set(0) A)(get B)(ok A)(inc A)(ok(0) B)
   (get B)(ok A... adapted to our counter naming. Thread A: Set(0) then Inc;
   thread B: Get (returning 0) then Get (returning 1). *)
let fig2 =
  history
    [
      call 0 0 "Set" ~arg:(Value.int 0) ();
      call 1 0 "Get" ();
      ret 0 0 Value.unit;
      call 0 1 "Inc" ();
      ret 1 0 (Value.int 0);
      call 1 1 "Get" ();
      ret 1 1 (Value.int 1);
    ]

let ops_of h = History.ops h

let suite =
  [
    test "well-formed accepts fig2" (fun () ->
        Alcotest.(check int) "events" 7 (History.length fig2));
    test "accepts any int tids, beyond four threads" (fun () ->
        let tids = [ 3; -1; max_int; min_int; 0; 7; 42; -9; 5 ] in
        let h =
          history
            (List.concat_map (fun t -> [ call t 0 "A" () ]) tids
            @ List.concat_map
                (fun t -> [ ret t 0 Value.unit; call t 1 "B" (); ret t 1 Value.unit ])
                tids)
        in
        Alcotest.(check int) "events" (4 * List.length tids) (History.length h));
  ]
  (* Each of [History.make]'s four messages, on a thread of each tid: alone,
     so the bad thread is the history's first, and after a call of a
     well-formed thread 7, so it is met as a second thread. *)
  @ List.map
      (fun (what, events, message) ->
        test ("rejects " ^ what) (fun () ->
            List.iter
              (fun tid ->
                List.iter
                  (fun (shape, h) ->
                    let what = Fmt.str "tid %d, %s" tid shape in
                    match history h with
                    | _ -> Alcotest.failf "%s: accepted" what
                    | exception Invalid_argument m ->
                      Alcotest.(check string) what ("History.make: " ^ message tid) m)
                  [
                    "alone", events tid;
                    "after thread 7", [ call 7 0 "X" () ] @ events tid @ [ ret 7 0 Value.unit ];
                  ])
              [ 0; 3; -1; max_int ]))
      [
        ( "double call",
          (fun t -> [ call t 0 "A" (); call t 1 "B" () ]),
          Fmt.str "thread %d: call B while an operation is pending" );
        ( "return without call",
          (fun t -> [ ret t 0 Value.unit ]),
          Fmt.str "thread %d: return unit without a pending call" );
        ( "a return after the thread's operations completed",
          (fun t -> [ call t 0 "A" (); ret t 0 Value.unit; ret t 1 (Value.int 2) ]),
          Fmt.str "thread %d: return 2 without a pending call" );
        ( "bad op_index",
          (fun t -> [ call t 3 "A" () ]),
          Fmt.str "thread %d: call A has op_index 3, expected 0" );
        ( "a return with a bad op_index",
          (fun t -> [ call t 0 "A" (); ret t 1 Value.unit ]),
          Fmt.str "thread %d: return has op_index 1, expected 0" );
      ]
  @ [
    test "threads of fig2" (fun () ->
        Alcotest.(check (list int)) "threads" [ 0; 1 ] (History.threads fig2));
    test "thread subhistory lengths" (fun () ->
        Alcotest.(check int) "A" 3 (List.length (History.thread_sub fig2 0));
        Alcotest.(check int) "B" 4 (List.length (History.thread_sub fig2 1)));
    test "ops of fig2" (fun () ->
        let ops = ops_of fig2 in
        Alcotest.(check int) "count" 4 (List.length ops);
        let pending = List.filter Op.is_pending ops in
        Alcotest.(check int) "pending" 1 (List.length pending);
        let p = List.hd pending in
        Alcotest.(check int) "pending thread" 0 p.Op.tid;
        Alcotest.(check string) "pending name" "Inc" p.Op.inv.Lineup_history.Invocation.name);
    test "fig2 is not complete" (fun () ->
        Alcotest.(check bool) "complete" false (History.is_complete fig2));
    test "complete() drops pending calls" (fun () ->
        let c = History.complete fig2 in
        Alcotest.(check bool) "complete" true (History.is_complete c);
        Alcotest.(check int) "events" 6 (History.length c));
    test "fig2 not serial" (fun () ->
        Alcotest.(check bool) "serial" false (History.is_serial fig2));
    test "serial history detected" (fun () ->
        let h =
          history [ call 0 0 "Inc" (); ret 0 0 Value.unit; call 1 0 "Get" (); ret 1 0 (Value.int 1) ]
        in
        Alcotest.(check bool) "serial" true (History.is_serial h));
    test "empty history is serial and complete" (fun () ->
        let h = history [] in
        Alcotest.(check bool) "serial" true (History.is_serial h);
        Alcotest.(check bool) "complete" true (History.is_complete h));
    test "stuck serial history ends with pending call" (fun () ->
        let h =
          history ~stuck:true
            [ call 0 0 "Inc" (); ret 0 0 Value.unit; call 1 0 "Dec" () ]
        in
        Alcotest.(check bool) "serial" true (History.is_serial h);
        Alcotest.(check bool) "stuck" true (History.is_stuck h));
    test "precedence: sequential ops ordered" (fun () ->
        let h =
          history [ call 0 0 "A" (); ret 0 0 Value.unit; call 1 0 "B" (); ret 1 0 Value.unit ]
        in
        match ops_of h with
        | [ a; b ] ->
          Alcotest.(check bool) "a<b" true (Op.precedes a b);
          Alcotest.(check bool) "not b<a" false (Op.precedes b a);
          Alcotest.(check bool) "not overlapping" false (Op.overlapping a b)
        | _ -> Alcotest.fail "expected two ops");
    test "precedence: overlapping ops unordered" (fun () ->
        let h =
          history [ call 0 0 "A" (); call 1 0 "B" (); ret 0 0 Value.unit; ret 1 0 Value.unit ]
        in
        match ops_of h with
        | [ a; b ] ->
          Alcotest.(check bool) "not a<b" false (Op.precedes a b);
          Alcotest.(check bool) "not b<a" false (Op.precedes b a);
          Alcotest.(check bool) "overlapping" true (Op.overlapping a b)
        | _ -> Alcotest.fail "expected two ops");
    test "pending op precedes nothing" (fun () ->
        let h = history [ call 0 0 "A" (); call 1 0 "B" (); ret 1 0 Value.unit ] in
        match ops_of h with
        | [ a; b ] ->
          Alcotest.(check bool) "not a<b" false (Op.precedes a b);
          Alcotest.(check bool) "not b<a" false (Op.precedes b a)
        | _ -> Alcotest.fail "expected two ops");
    test "restrict_to_pending keeps complete ops and one pending call" (fun () ->
        let h =
          history ~stuck:true
            [
              call 0 0 "A" ();
              ret 0 0 Value.unit;
              call 1 0 "B" ();
              call 2 0 "C" ();
            ]
        in
        let pending = History.pending_ops h in
        Alcotest.(check int) "two pending" 2 (List.length pending);
        let b = List.find (fun (o : Op.t) -> o.tid = 1) pending in
        let hb = History.restrict_to_pending h b in
        Alcotest.(check int) "events" 3 (History.length hb);
        Alcotest.(check bool) "stuck" true (History.is_stuck hb);
        Alcotest.(check int) "one pending" 1 (List.length (History.pending_ops hb)));
    test "restrict_to_pending rejects complete op" (fun () ->
        let h = history ~stuck:true [ call 0 0 "A" (); ret 0 0 Value.unit; call 1 0 "B" () ] in
        let a = List.hd (History.complete_ops h) in
        match History.restrict_to_pending h a with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
    test "prefixes count" (fun () ->
        Alcotest.(check int) "prefixes" 8 (List.length (History.prefixes fig2)));
    test "prefixes are well-formed histories" (fun () ->
        List.iter (fun p -> ignore (History.ops p)) (History.prefixes fig2));
    test "interleaving notation" (fun () ->
        let h =
          history [ call 0 0 "A" (); call 1 0 "B" (); ret 0 0 Value.unit; ret 1 0 Value.unit ]
        in
        Alcotest.(check string) "tokens" "1[ 2[ ]1 ]2" (Fmt.str "%a" History.pp_interleaving h));
    test "interleaving notation stuck" (fun () ->
        let h = history ~stuck:true [ call 0 0 "A" () ] in
        Alcotest.(check string) "tokens" "1[ #" (Fmt.str "%a" History.pp_interleaving h));
    test "thread labels" (fun () ->
        Alcotest.(check string) "A" "A" (Event.thread_label 0);
        Alcotest.(check string) "B" "B" (Event.thread_label 1);
        Alcotest.(check string) "Z" "Z" (Event.thread_label 25);
        Alcotest.(check string) "A1" "A1" (Event.thread_label 26));
  ]

let tests = suite
