open Helpers
module Value = Lineup_value.Value
module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history
open Lineup

let u = Value.Unit

let add_ok obs s =
  match Observation.add obs s with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected nondeterminism"

let suite =
  [
    test "add and count" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Inc", u, Value.unit ]);
        add_ok obs (serial ~stuck:(0, "Dec", u) []);
        Alcotest.(check int) "full" 1 (Observation.num_full obs);
        Alcotest.(check int) "stuck" 1 (Observation.num_stuck obs));
    test "duplicates are ignored" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Inc", u, Value.unit ]);
        add_ok obs (serial [ 0, "Inc", u, Value.unit ]);
        Alcotest.(check int) "full" 1 (Observation.num_full obs));
    test "nondeterminism detected on differing responses" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Get", u, Value.int 0 ]);
        match Observation.add obs (serial [ 0, "Get", u, Value.int 1 ]) with
        | Error (s1, s2) ->
          Alcotest.(check bool) "pair differs" false (Serial_history.equal s1 s2)
        | Ok () -> Alcotest.fail "expected nondeterminism");
    test "nondeterminism detected on response vs stuck" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Dec", u, Value.unit ]);
        match Observation.add obs (serial ~stuck:(0, "Dec", u) []) with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected nondeterminism");
    test "no false nondeterminism across different prefixes" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial [ 0, "Inc", u, Value.unit; 0, "Get", u, Value.int 1 ]);
        add_ok obs (serial [ 0, "Get", u, Value.int 0; 0, "Inc", u, Value.unit ]);
        add_ok obs (serial ~stuck:(1, "Dec", u) [ 0, "Get", u, Value.int 0 ]);
        Alcotest.(check int) "full" 2 (Observation.num_full obs));
    test "witness lookup finds matching group" (fun () ->
        let obs = Observation.create () in
        let s =
          serial [ 0, "Inc", u, Value.unit; 1, "Inc", u, Value.unit; 0, "Get", u, Value.int 2 ]
        in
        add_ok obs s;
        let h =
          history
            [
              call 0 0 "Inc" ();
              call 1 0 "Inc" ();
              ret 0 0 Value.unit;
              ret 1 0 Value.unit;
              call 0 1 "Get" ();
              ret 0 1 (Value.int 2);
            ]
        in
        Alcotest.(check (option serial_t)) "found" (Some s) (Observation.witness obs h));
    test "witness lookup respects real-time order" (fun () ->
        let obs = Observation.create () in
        (* only witness orders Get before B's Inc *)
        add_ok obs
          (serial [ 0, "Inc", u, Value.unit; 0, "Get", u, Value.int 1; 1, "Inc", u, Value.unit ]);
        (* but in H, B's Inc completes before Get starts *)
        let h =
          history
            [
              call 0 0 "Inc" ();
              ret 0 0 Value.unit;
              call 1 0 "Inc" ();
              ret 1 0 Value.unit;
              call 0 1 "Get" ();
              ret 0 1 (Value.int 1);
            ]
        in
        Alcotest.(check (option serial_t)) "no witness" None (Observation.witness obs h));
    test "stuck lookup goes through H[e]" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial ~stuck:(0, "Wait", u) []);
        add_ok obs (serial ~stuck:(1, "Wait", u) []);
        let h = history ~stuck:true [ call 0 0 "Wait" (); call 1 0 "Wait" () ] in
        Alcotest.(check bool) "both justified" true
          (Option.is_none (Spec.first_unjustified (observed obs) h)));
    test "stuck lookup reports the unjustified op" (fun () ->
        let obs = Observation.create () in
        add_ok obs (serial ~stuck:(0, "Wait", u) []);
        let h =
          history ~stuck:true
            [ call 1 0 "Set" (); ret 1 0 Value.unit; call 0 0 "Wait" () ]
        in
        match Spec.first_unjustified (observed obs) h with
        | Some (op, Spec.Reject) -> Alcotest.(check int) "tid" 0 op.Lineup_history.Op.tid
        | Some _ | None -> Alcotest.fail "expected unjustified");
  ]

(* ---------------- add against a naive model ---------------- *)

(* A random sequence of adds over one test: every thread runs a fixed column
   of operations, a serial history interleaves them, and each response is
   the number of operations completed before it, mod 2 — a deterministic
   object — except for a rare deviant response or a thread blocking early.
   Drawing the adds from a small pool gives duplicates, nondeterministic
   variants and re-adds after an [Error]. *)
let gen_adds rng =
  let threads = 2 + Random.State.int rng 2 in
  let op () =
    match Random.State.int rng 4 with
    | 0 -> inv "Inc"
    | 1 -> inv "Get"
    | n -> inv ~arg:(Value.int (n - 1)) "Add"
  in
  let column _ = List.init (1 + Random.State.int rng 2) (fun _ -> op ()) in
  let columns = Array.init threads column in
  let serial () =
    let queues = Array.copy columns in
    let rec go entries completed =
      match List.filter (fun t -> queues.(t) <> []) (List.init threads Fun.id) with
      | [] -> Serial_history.make (List.rev entries)
      | live ->
        let tid = List.nth live (Random.State.int rng (List.length live)) in
        let inv = List.hd queues.(tid) in
        queues.(tid) <- List.tl queues.(tid);
        if Random.State.int rng 8 = 0 then
          Serial_history.make ~stuck:(Some (tid, inv)) (List.rev entries)
        else
          let resp = Value.int (if Random.State.int rng 10 = 0 then 2 else completed mod 2) in
          go ({ Serial_history.tid; inv; resp } :: entries) (completed + 1)
    in
    go [] 0
  in
  let pool = Array.init (2 + Random.State.int rng 6) (fun _ -> serial ()) in
  List.init (2 + Random.State.int rng 14) (fun _ -> pool.(Random.State.int rng (Array.length pool)))

(* The model: every distinct history in first-occurrence order, and the
   ones accepted with [Ok]. A new history is nondeterministic exactly when
   it forms a nondeterministic pair with an accepted one: a history
   recorded with an [Error] never enters the determinism trie. *)
type model = {
  mutable recorded : Serial_history.t list;  (* most recent first *)
  mutable accepted : Serial_history.t list;
}

let model_add m s =
  if List.exists (Serial_history.equal s) m.recorded then true
  else begin
    m.recorded <- s :: m.recorded;
    let ok = not (List.exists (fun h -> Serial_history.nondeterministic_pair h s) m.accepted) in
    if ok then m.accepted <- s :: m.accepted;
    ok
  end

let adds_arb =
  QCheck.make ~print:(Fmt.str "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Serial_history.pp)) gen_adds

let add_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"add agrees with a naive model" ~count:2000 adds_arb (fun adds ->
           let obs = Observation.create () in
           let m = { recorded = []; accepted = [] } in
           List.iteri
             (fun i s ->
               let accepted_before = m.accepted in
               match Observation.add obs s, model_add m s with
               | Ok (), true -> ()
               | Error (s1, s2), false ->
                 if
                   not
                     (Serial_history.equal s2 s
                     && List.exists (Serial_history.equal s1) accepted_before
                     && Serial_history.nondeterministic_pair s1 s2)
                 then QCheck.Test.fail_reportf "add %d: the Error pair is not a witness" i
               | Ok (), false -> QCheck.Test.fail_reportf "add %d: Ok, the model says Error" i
               | Error _, true -> QCheck.Test.fail_reportf "add %d: Error, the model says Ok" i)
             adds;
           let recorded = List.rev m.recorded in
           let full = List.filter (fun s -> not (Serial_history.is_stuck s)) recorded in
           let stuck = List.filter Serial_history.is_stuck recorded in
           let same = List.equal Serial_history.equal in
           if Observation.num_full obs <> List.length full then
             QCheck.Test.fail_reportf "num_full %d (want %d)" (Observation.num_full obs)
               (List.length full)
           else if Observation.num_stuck obs <> List.length stuck then
             QCheck.Test.fail_reportf "num_stuck %d (want %d)" (Observation.num_stuck obs)
               (List.length stuck)
           else if not (same (Observation.full_histories obs) full) then
             QCheck.Test.fail_reportf "full_histories not in first-occurrence order"
           else if not (same (Observation.stuck_histories obs) stuck) then
             QCheck.Test.fail_reportf "stuck_histories not in first-occurrence order"
           else true));
  ]

let tests = suite @ add_props
