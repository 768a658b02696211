open Helpers
module Value = Lineup_value.Value
module Serial_history = Lineup_history.Serial_history
module Conc = Lineup_conc
open Lineup

let u = Value.Unit

(* Build an observation set by actually running phase 1 of a test. *)
let phase1_observation adapter cols =
  let r = Check.run adapter (Test_matrix.make cols) in
  r.Check.observation

let sort = List.sort Serial_history.compare

let roundtrip obs =
  let str = Observation_file.to_string obs in
  Observation_file.of_string str

let suite =
  [
    test "roundtrip of a real phase-1 observation set" (fun () ->
        let obs =
          phase1_observation Conc.Counters.correct [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]
        in
        let parsed = roundtrip obs in
        let original =
          sort (Observation.full_histories obs @ Observation.stuck_histories obs)
        in
        Alcotest.(check (list serial_t)) "histories" original (sort parsed));
    test "roundtrip with stuck histories (blocking Take)" (fun () ->
        let adapter = Conc.Spec_impl.adapter Lineup_spec.Specs.queue in
        let obs =
          phase1_observation adapter [ [ inv "Take" ]; [ inv_int "Enqueue" 5 ] ]
        in
        Alcotest.(check bool) "has stuck" true (Observation.num_stuck obs > 0);
        let parsed = roundtrip obs in
        let original =
          sort (Observation.full_histories obs @ Observation.stuck_histories obs)
        in
        Alcotest.(check (list serial_t)) "histories" original (sort parsed));
    test "roundtrip preserves arguments and results" (fun () ->
        let obs = Observation.create () in
        (match
           Observation.add obs
             (serial
                [ 0, "Add", Value.int 200, Value.unit; 1, "Take", u, Value.int 200 ])
         with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "unexpected nondet");
        let parsed = roundtrip obs in
        Alcotest.(check int) "one history" 1 (List.length parsed);
        let s = List.hd parsed in
        let e0 = List.hd s.Serial_history.entries in
        Alcotest.check value "arg" (Value.int 200) e0.Serial_history.inv.Lineup_history.Invocation.arg);
    test "fig. 7 structure: sections group by thread sequences" (fun () ->
        let obs =
          phase1_observation Conc.Blocking_collection.fifo
            [ [ inv_int "Add" 200; inv_int "Add" 400 ]; [ inv "Take"; inv "TryTake" ] ]
        in
        let xml = Observation_file.to_xml obs in
        Alcotest.(check string) "root" "observationset" (Xml.tag xml);
        let sections = Xml.elements xml in
        Alcotest.(check bool) "has sections" true (List.length sections > 0);
        List.iter
          (fun (tag, section) ->
            Alcotest.(check string) "section tag" "observation" tag;
            let elems = Xml.elements section in
            let count t = List.length (List.filter (fun (tg, _) -> tg = t) elems) in
            Alcotest.(check bool) "has threads" true (count "thread" > 0);
            Alcotest.(check bool) "has histories" true (count "history" > 0))
          sections);
    test "interleaving tokens of a concurrent history" (fun () ->
        let h =
          history
            [ call 0 0 "A" (); call 1 0 "B" (); ret 0 0 Value.unit; ret 1 0 Value.unit ]
        in
        Alcotest.(check string) "tokens" "1[ 2[ ]1 ]2" (Observation_file.interleaving_tokens h));
    test "stuck interleaving ends with #" (fun () ->
        let h = history ~stuck:true [ call 0 0 "Take" () ] in
        Alcotest.(check string) "tokens" "1[ #" (Observation_file.interleaving_tokens h));
    test "blocked ops are marked with B in thread lists" (fun () ->
        let obs = Observation.create () in
        (match Observation.add obs (serial ~stuck:(0, "Take", u) []) with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "nondet");
        let str = Observation_file.to_string obs in
        let contains affix s =
          let n = String.length affix and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "contains 1B" true (contains "1B" str));
    test "observation_of_histories detects nondeterminism" (fun () ->
        let h1 = serial [ 0, "Get", u, Value.int 0 ] in
        let h2 = serial [ 0, "Get", u, Value.int 1 ] in
        match Observation_file.observation_of_histories [ h1; h2 ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected nondeterminism");
    test "save/load through a file" (fun () ->
        let obs =
          phase1_observation Conc.Counters.correct [ [ inv "Inc" ]; [ inv "Get" ] ]
        in
        let path = Filename.temp_file "lineup" ".xml" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Observation_file.save ~path obs;
            let parsed = Observation_file.load ~path in
            Alcotest.(check int) "count" (Observation.num_full obs) (List.length parsed)));
  ]

(* A real observation file with a stuck history, and the five places a
   number is read from it. *)
let fuzz =
  let file =
    let adapter = Conc.Spec_impl.adapter Lineup_spec.Specs.queue in
    Observation_file.to_string
      (phase1_observation adapter
         [ [ inv "Take"; inv_int "Enqueue" 7 ]; [ inv_int "Enqueue" 5 ] ])
  in
  let replace_first ~sub ~by s =
    let n = String.length sub in
    let rec at i = if String.sub s i n = sub then i else at (i + 1) in
    let i = at 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  [
    test "of_string: a non-numeric id, token or label is Invalid_argument" (fun () ->
        List.iter
          (fun (sub, by) ->
            match Observation_file.of_string (replace_first ~sub ~by file) with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "%S for %S was accepted" by sub)
          [
            {|<op id="1"|}, {|<op id="x"|};
            {|<thread id="A">1|}, {|<thread id="A">x|};
            {|<thread id="A">|}, {|<thread id="Ax">|};
            "<history>1[", "<history>x[";
            "]1", "]x";
          ]);
    decoder_total ~name:"Observation_file.of_string raises only Invalid_argument" ~count:1500
      (mutations_gen
         ~alphabet:
           [ '<'; '>'; '/'; '"'; '='; ' '; '['; ']'; '#'; 'B'; '0'; '1'; '9'; 'A'; 'x'; '-'; '&' ]
         file)
      Observation_file.of_string;
  ]

let tests = suite @ fuzz
