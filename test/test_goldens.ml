(* Byte-identity goldens: the report, --metrics file and exit code of a
   CLI run. The check cases pin every counter the phase-2 optimizations
   must leave alone — dedup_hits, witness_probes, stuck_probes and
   histories_fingerprint among them; the others pin the paths that share
   the phase-2 pipeline: a cancelled run, a weak-memory reduced run, and
   [compare] with attached analyzers, including a class whose phase 1
   fails; one pins the usage error of a malformed column. A golden changes
   only with a deliberate, documented output
   change; regenerate one with

     lineup_cli SUBCOMMAND --metrics goldens/NAME.metrics.json ARGS... > goldens/NAME.report

   Below them, the equivalence table: runs of one test that must agree
   with each other across --membership modes, -j and an explicit --memory
   sc, the exit codes of the weak-memory litmus, a check's --trace
   recording that [lineup monitor --replay] must judge as the check did,
   and the exit-code contract of [lineup monitor] on a live stream. *)

open Helpers

let golden name ext = Filename.concat "goldens" (name ^ ext)

let stack_3x3 =
  [
    "--membership"; "generic"; "--por"; "-p"; "2"; "--max-executions"; "2000"; "ConcurrentStack";
    "Push(1),TryPop,Push(2)"; "Push(3),TryPop,TryPop"; "Push(4),TryPop,Push(5)";
  ]

(* name, expected exit code, subcommand, arguments after
   [SUBCOMMAND --metrics FILE] *)
let cases =
  [
    ( "fig1-queue",
      1,
      "check",
      [
        "-v"; "--membership"; "generic"; "ConcurrentQueue (Pre: timed lock in TryDequeue)";
        "Enqueue(200),Enqueue(400)"; "TryDequeue,TryDequeue";
      ] );
    "stack-3x3-por", 0, "check", "-v" :: stack_3x3;
    "stack-3x3-por-j4", 0, "check", "-v" :: "-j" :: "4" :: stack_3x3;
    ( "mre-cas-typo",
      1,
      "check",
      [ "-v"; "ManualResetEvent (Pre: CAS typo)"; "Wait,IsSet"; "Set,Reset" ] );
    ( "counter-cancel-after",
      2,
      "check",
      [ "-v"; "--cancel-after"; "5"; "Counter"; "Inc,Get"; "Inc" ] );
    ( "dekker-tso-por",
      0,
      "check",
      [ "-v"; "--memory"; "tso"; "--por"; "-p"; "0"; "DekkerCounter"; "Inc,Get"; "Inc" ] );
    ( "compare-counter1-tso",
      1,
      "compare",
      [ "--tso"; "Counter1 (unlocked inc)"; "Inc,Get"; "Inc" ] );
    ( "compare-cts-phase1",
      1,
      "compare",
      [ "CancellationTokenSource"; "Cancel"; "IsCancellationRequested" ] );
    (* a malformed column is a usage error (exit 124, nothing on stdout, no
       metrics file), as an unknown class name is *)
    "check-bad-column", 124, "check", [ "Counter"; "Inc(zzz)"; "Get" ];
    (* each phase-2 engine deciding, both ways: the queue monitor and the
       per-key set engine *)
    ( "queue-monitor-accept",
      0,
      "check",
      [ "-v"; "ConcurrentQueue"; "Enqueue(1),TryDequeue"; "TryDequeue,Enqueue(2)" ] );
    ( "queue-monitor-reject",
      1,
      "check",
      [
        "-v"; "ConcurrentQueue (Pre: timed lock in TryDequeue)"; "Enqueue(200),Enqueue(400)";
        "TryDequeue,TryDequeue";
      ] );
    ( "set-pcomp-accept",
      0,
      "check",
      [ "-v"; "LazyListSet"; "Add(1),Remove(1)"; "Add(1),Contains(1)" ] );
    ( "set-pcomp-reject",
      1,
      "check",
      [
        "-v"; "LazyListSet (Pre: remove without marking)"; "Add(1),Add(2)"; "Remove(1)";
        "Contains(2)";
      ] );
  ]

let golden_tests =
  List.map
    (fun (name, want_code, subcommand, args) ->
      test (subcommand ^ " output is byte-identical to the golden: " ^ name) (fun () ->
          let code, report, metrics = run_cli subcommand args in
          Alcotest.(check int) "exit code" want_code code;
          Alcotest.(check string) "report" (read (golden name ".report")) report;
          Alcotest.(check string) "metrics" (read (golden name ".metrics.json")) metrics))
    cases

(* ---- equivalence ---- *)

(* The spec-specialized membership layer may change how a phase-2 history
   is decided, never which histories are enumerated or what the verdict
   is; and the streaming monitor, replaying the histories a check
   recorded, must reach the check's verdict. Each row names a relation
   that its runs must satisfy, with the arguments of its [check] (of its
   stream, for [Stream_exits]). *)
type relation =
  | Modes_agree
      (** one run per --membership mode (generic, auto): equal exit codes
          and histories_distinct and histories_fingerprint, and the generic
          report byte-identical to the auto report *)
  | Modes_fail  (** one run per --membership mode, each exiting 1 *)
  | Identical of string list list
      (** one run per extra argument list: byte-identical report, exit code
          and metrics *)
  | Default_is_sc
      (** a run without --memory and one with --memory sc: byte-identical
          report, exit code and metrics, and no flushes key in the
          metrics *)
  | Exits of int  (** the check exits with this code *)
  | Replay_agrees of { spec : string; extra : string list; code : int }
      (** [check --trace FILE] exits [code], and so does [monitor SPEC FILE
          --replay EXTRA...] *)
  | Stream_exits of { spec : string; stdin : bool; code : int }
      (** the arguments are the lines of a live NDJSON stream, and [monitor
          SPEC] exits [code] on it, read from a file or from stdin *)

let modes = [ "generic"; "auto" ]

let counter name metrics =
  let ( let* ) = Option.bind in
  match
    let* json = Result.to_option (Lineup_observe.Ndjson.parse metrics) in
    let* counters = Lineup_observe.Ndjson.member "counters" json in
    let* v = Lineup_observe.Ndjson.member ("analyze.lineup." ^ name) counters in
    Lineup_observe.Ndjson.to_int v
  with
  | Some n -> n
  | None -> Alcotest.failf "no counter %s in the metrics" name

(* The weak-memory --por -j row takes seconds a run (fenced, tso, --por
   -p 1); tier-1 runs it under an execution cap, and CI sets
   LINEUP_FULL_EQUIVALENCE to run it whole. *)
let full_equivalence = Option.is_some (Sys.getenv_opt "LINEUP_FULL_EQUIVALENCE")

let equivalences =
  let agree args = Modes_agree, args and fail args = Modes_fail, args in
  let j1_j4 = Identical [ [ "-j"; "1" ]; [ "-j"; "4" ] ] in
  let fence_free = "DekkerCounter (Pre: missing store-load fence)" in
  let replay ?(extra = []) spec code args = Replay_agrees { spec; extra; code }, args in
  [
    agree [ "ConcurrentQueue"; "Enqueue(200),TryDequeue"; "Enqueue(400),TryDequeue" ];
    agree [ "ConcurrentStack"; "Push(1),TryPop"; "Push(2),TryPop" ];
    agree [ "MichaelScottQueue"; "Enqueue(1),TryDequeue"; "Enqueue(2),TryDequeue" ];
    agree [ "LazyListSet"; "Add(10),Remove(10)"; "Add(15),Contains(10)" ];
    agree [ "ConcurrentDictionary"; "TryAdd(10),TryGet(10)"; "Set(20),TryRemove(20)" ];
    agree [ "SemaphoreSlim"; "Wait"; "Release" ];
    (* a value removed twice and then inserted again is ambiguous: the
       engine must fall back to the generic search, never reject *)
    agree [ "SegmentQueue"; "Enqueue(1),TryDequeue,TryDequeue"; "Enqueue(1)" ];
    agree [ "ConcurrentStack (Pre: non-atomic TryPopRange)"; "Push(1),TryPop,TryPop"; "Push(1)" ];
    (* seeded bugs are still caught in every mode *)
    fail
      [
        "ConcurrentQueue (Pre: timed lock in TryDequeue)"; "Enqueue(200),Enqueue(400)";
        "TryDequeue,TryDequeue";
      ];
    fail [ "ConcurrentStack (Pre: non-atomic TryPopRange)"; "Push(1),Push(2)"; "TryPopRange(2)" ];
    fail [ "ManualResetEvent (Pre: lost signal)"; "Wait"; "Set" ];
    (* the frontier split under the specialized path *)
    ( j1_j4,
      [
        "ConcurrentQueue"; "Enqueue(200),TryDequeue"; "Enqueue(400),TryDequeue"; "-v";
        "--membership"; "auto";
      ] );
    (* the weak-memory layer is invisible until asked for *)
    Default_is_sc, [ "Counter"; "Inc,Get"; "Inc,Get"; "-v" ];
    Default_is_sc, [ "ConcurrentQueue"; "Enqueue(1),TryDequeue"; "Enqueue(2),TryDequeue"; "-v" ];
    Default_is_sc, [ "ConcurrentBag"; "Add(10),Add(20)"; "TryTake"; "-v" ];
    (* the seeded fence bug is weak-only: sc passes exhaustively, tso
       finds it *)
    Exits 0, [ fence_free; "Inc,Get"; "Inc" ];
    Exits 1, [ fence_free; "Inc,Get"; "Inc"; "--memory"; "tso" ];
    (* the frontier split under weak memory, also with --por, whose
       partitions sleep thread steps across flushes *)
    j1_j4, [ fence_free; "Inc,Get"; "Inc"; "-v"; "--memory"; "tso" ];
    ( j1_j4,
      [ "DekkerCounter"; "Inc,Get"; "Inc"; "-v"; "--memory"; "tso"; "--por"; "-p"; "1" ]
      @ if full_equivalence then [] else [ "--max-executions"; "1500" ] );
    (* the streaming monitor replays a check's recording to the check's
       verdict, on passing and seeded-bug classes, and under -j 4 *)
    replay "queue" 0 [ "ConcurrentQueue"; "Enqueue(200),TryDequeue"; "Enqueue(400),TryDequeue" ];
    replay "queue" 1
      [
        "ConcurrentQueue (Pre: timed lock in TryDequeue)"; "Enqueue(200),Enqueue(400)";
        "TryDequeue,TryDequeue";
      ];
    replay "stack" 0 [ "ConcurrentStack"; "Push(1),TryPop"; "Push(2),TryPop" ];
    replay "set" 0 [ "LazyListSet"; "Add(10),Remove(10)"; "Add(15),Contains(10)" ];
    replay ~extra:[ "-j"; "4" ] "set" 0
      [ "LazyListSet"; "Add(10),Remove(10)"; "Add(15),Contains(10)" ];
    (* lineup monitor's exit codes on a live stream: 0 clean, 1 violation,
       3 unsupported *)
    ( Stream_exits { spec = "queue"; stdin = true; code = 0 },
      [
        {|{"t":0.0,"ev":"call","tid":0,"op":0,"name":"Enqueue","arg":"1"}|};
        {|{"t":0.1,"ev":"ret","tid":0,"op":0,"val":"unit"}|};
        {|{"t":0.2,"ev":"call","tid":1,"op":0,"name":"TryDequeue"}|};
        {|{"t":0.3,"ev":"ret","tid":1,"op":0,"val":"1"}|};
      ] );
    ( Stream_exits { spec = "queue"; stdin = false; code = 1 },
      [
        {|{"t":0.0,"ev":"call","tid":0,"op":0,"name":"Enqueue","arg":"1"}|};
        {|{"t":0.1,"ev":"ret","tid":0,"op":0,"val":"unit"}|};
        {|{"t":0.2,"ev":"call","tid":0,"op":1,"name":"Enqueue","arg":"2"}|};
        {|{"t":0.3,"ev":"ret","tid":0,"op":1,"val":"unit"}|};
        {|{"t":0.4,"ev":"call","tid":1,"op":0,"name":"TryDequeue"}|};
        {|{"t":0.5,"ev":"ret","tid":1,"op":0,"val":"2"}|};
        {|{"t":0.6,"ev":"call","tid":1,"op":1,"name":"TryDequeue"}|};
        {|{"t":0.7,"ev":"ret","tid":1,"op":1,"val":"1"}|};
      ] );
    ( Stream_exits { spec = "queue"; stdin = false; code = 3 },
      [
        {|{"t":0.0,"ev":"call","tid":0,"op":0,"name":"Frobnicate"}|};
        {|{"t":0.1,"ev":"ret","tid":0,"op":0,"val":"unit"}|};
      ] );
  ]

let row_name (relation, args) =
  match relation with
  | Modes_agree -> "membership modes agree: " ^ List.hd args
  | Modes_fail -> "every membership mode exits 1: " ^ List.hd args
  | Identical variants ->
    String.concat " and " (List.map (String.concat " ") variants)
    ^ " are byte-identical: " ^ List.hd args
  | Default_is_sc -> "the default and --memory sc are byte-identical: " ^ List.hd args
  | Exits code -> Fmt.str "check exits %d: %s" code (String.concat " " args)
  | Replay_agrees { spec; extra; code } ->
    Fmt.str "check --trace and monitor %s --replay%s exit %d: %s" spec
      (String.concat "" (List.map (( ^ ) " ") extra))
      code (List.hd args)
  | Stream_exits { spec; stdin; code } ->
    Fmt.str "monitor %s exits %d on a live stream (%s)" spec code
      (if stdin then "stdin" else "file")

(* [f path] with [lines] written to the temporary file [path] *)
let with_lines lines f =
  let path = Filename.temp_file "lineup-golden" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      f path)

let equivalence_tests =
  List.map
    (fun ((relation, args) as row) ->
      test (row_name row) (fun () ->
          (* the runs of [args] with each extra argument list agree byte for
             byte; the first run's exit code, report and metrics *)
          let identical variants =
            match run_cli_all (List.map (fun extra -> "check", args @ extra) variants) with
            | [] -> invalid_arg "no variants"
            | ((code, report, metrics) as first) :: rest ->
              List.iter
                (fun (code', report', metrics') ->
                  Alcotest.(check int) "exit code" code code';
                  Alcotest.(check string) "report" report report';
                  Alcotest.(check string) "metrics" metrics metrics')
                rest;
              first
          in
          let in_modes () =
            List.combine modes
              (run_cli_all (List.map (fun mode -> "check", args @ [ "--membership"; mode ]) modes))
          in
          match relation with
          | Modes_agree ->
            let runs = in_modes () in
            let gen_code, gen_report, gen_metrics = List.assoc "generic" runs in
            List.iter
              (fun (mode, (code, report, metrics)) ->
                Alcotest.(check int) (mode ^ " exit code") gen_code code;
                if mode = "auto" then Alcotest.(check string) "auto report" gen_report report;
                List.iter
                  (fun k ->
                    Alcotest.(check int) (mode ^ " " ^ k) (counter k gen_metrics)
                      (counter k metrics))
                  [ "histories_distinct"; "histories_fingerprint" ])
              runs
          | Modes_fail ->
            List.iter
              (fun (mode, (code, _, _)) -> Alcotest.(check int) ("--membership " ^ mode) 1 code)
              (in_modes ())
          | Identical variants -> ignore (identical variants)
          | Default_is_sc ->
            let _, _, metrics = identical [ []; [ "--memory"; "sc" ] ] in
            Alcotest.(check bool) "no flushes key in the sc metrics" false
              (contains ~sub:"flushes" metrics)
          | Exits code ->
            let got, _, _ = run_cli "check" args in
            Alcotest.(check int) "exit code" code got
          | Replay_agrees { spec; extra; code } ->
            with_lines [] (fun trace ->
                let check_code, _, _ = run_cli "check" (args @ [ "--trace"; trace ]) in
                let replay_code, _, _ = run_cli "monitor" ([ spec; trace; "--replay" ] @ extra) in
                Alcotest.(check int) "check exit code" code check_code;
                Alcotest.(check int) "replay exit code" check_code replay_code)
          | Stream_exits { spec; stdin; code } ->
            with_lines args (fun stream ->
                let got, _, _ =
                  if stdin then run_cli ~input:stream "monitor" [ spec; "-" ]
                  else run_cli "monitor" [ spec; stream ]
                in
                Alcotest.(check int) "exit code" code got)))
    equivalences

let tests = golden_tests @ equivalence_tests
