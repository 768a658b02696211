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
   with each other across --por, -j, shard-server and an explicit --memory
   sc, the exit codes of seeded bugs and of the weak-memory litmus, a
   check's --trace recording that [lineup monitor --replay] must judge as
   the check did, the exit-code contract of [lineup monitor] on a live
   stream, and the exit codes and -j identity of the other subcommands. *)

open Helpers

let golden name ext = Filename.concat "goldens" (name ^ ext)

let stack_3x3 =
  [
    "--por"; "-p"; "2"; "--max-executions"; "2000"; "ConcurrentStack"; "Push(1),TryPop,Push(2)";
    "Push(3),TryPop,TryPop"; "Push(4),TryPop,Push(5)";
  ]

(* [list], [observe] and [repro] take no --metrics; their goldens have no
   metrics file *)
let takes_metrics sub = sub <> "list" && sub <> "observe" && sub <> "repro"

(* name, expected exit code, subcommand, arguments after
   [SUBCOMMAND --metrics FILE] *)
let cases =
  [
    ( "fig1-queue",
      1,
      "check",
      [
        "-v"; "ConcurrentQueue (Pre: timed lock in TryDequeue)"; "Enqueue(200),Enqueue(400)";
        "TryDequeue,TryDequeue";
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
    (* a passing queue, and a set passing and failing *)
    ( "queue-accept",
      0,
      "check",
      [ "-v"; "ConcurrentQueue"; "Enqueue(1),TryDequeue"; "TryDequeue,Enqueue(2)" ] );
    "set-accept", 0, "check", [ "-v"; "LazyListSet"; "Add(1),Remove(1)"; "Add(1),Contains(1)" ];
    ( "set-reject",
      1,
      "check",
      [
        "-v"; "LazyListSet (Pre: remove without marking)"; "Add(1),Add(2)"; "Remove(1)";
        "Contains(2)";
      ] );
    (* phase 1's observation file, and the phase-1 failure that leaves
       nothing to write *)
    "observe-counter", 0, "observe", [ "Counter"; "Inc"; "Get" ];
    ( "observe-cts-phase1",
      1,
      "observe",
      [ "CancellationTokenSource"; "Cancel"; "IsCancellationRequested" ] );
    (* every failing registry entry's regression test fails (§5.1) *)
    "repro", 0, "repro", [];
  ]

let golden_tests =
  List.map
    (fun (name, want_code, subcommand, args) ->
      test (subcommand ^ " output is byte-identical to the golden: " ^ name) (fun () ->
          let metrics = takes_metrics subcommand in
          let code, report, got = run_cli ~metrics subcommand args in
          Alcotest.(check int) "exit code" want_code code;
          Alcotest.(check string) "report" (read (golden name ".report")) report;
          if metrics then
            Alcotest.(check string) "metrics" (read (golden name ".metrics.json")) got))
    cases

(* ---- equivalence ---- *)

(* A layer that changes how the schedules are explored (--por, -j, worker
   processes, the memory model when it is sc) must never change which
   histories are checked or what the verdict is; and the streaming
   monitor, replaying the histories a check recorded, must reach the
   check's verdict. Each row names a subcommand, a relation that its runs
   must satisfy, and the arguments of the subcommand (the lines of its
   stream, for [Stream_exits]). *)
type relation =
  | Identical of string list list
      (** one run per extra argument list: byte-identical report, exit code
          and metrics *)
  | Por_preserves
      (** a run without --por and one with it: both exit 0, with equal
          histories_distinct and histories_fingerprint, and no more phase-2
          executions under --por *)
  | Shard_agrees
      (** [check -j 4 -v] and [shard-server --dir DIR --local 4 -v]:
          byte-identical report, exit code and metrics *)
  | Default_is_sc
      (** a run without --memory and one with --memory sc: byte-identical
          report, exit code and metrics, and no flushes key in the
          metrics *)
  | Exits of int  (** the run exits with this code *)
  | Writes_nothing of int
      (** [SUB ARGS -o FILE] exits with this code and leaves no FILE *)
  | Replay_agrees of { spec : string; extra : string list; code : int }
      (** [SUB ARGS --trace FILE] exits [code], and so does [monitor SPEC
          FILE --replay EXTRA...] *)
  | Stream_exits of { spec : string; extra : string list; stdin : bool; code : int }
      (** the arguments are the lines of a live NDJSON stream, and [SUB SPEC
          EXTRA...] exits [code] on it, read from a file or from stdin *)

(* the counter [key] of a --metrics file *)
let counter key metrics =
  let ( let* ) = Option.bind in
  match
    let* json = Result.to_option (Ndjson.parse metrics) in
    let* counters = Ndjson.member "counters" json in
    let* v = Ndjson.member key counters in
    Ndjson.to_int v
  with
  | Some n -> n
  | None -> Alcotest.failf "no counter %s in the metrics" key

(* The weak-memory --por -j row takes seconds a run (fenced, tso, --por
   -p 1); tier-1 runs it under an execution cap, and CI sets
   LINEUP_FULL_EQUIVALENCE to run it whole. *)
let full_equivalence = Option.is_some (Sys.getenv_opt "LINEUP_FULL_EQUIVALENCE")

let j1_j4 = Identical [ [ "-j"; "1" ]; [ "-j"; "4" ] ]
let counter1 = [ "Counter1 (unlocked inc)"; "Inc,Get"; "Inc" ]

(* the rows of check runs *)
let check_rows =
  let fig1 =
    [
      "ConcurrentQueue (Pre: timed lock in TryDequeue)"; "Enqueue(200),Enqueue(400)";
      "TryDequeue,TryDequeue";
    ]
  in
  let fence_free = "DekkerCounter (Pre: missing store-load fence)" in
  let replay ?(extra = []) spec code args = Replay_agrees { spec; extra; code }, args in
  [
    Exits 0, [ "ConcurrentQueue"; "Enqueue(200),TryDequeue"; "Enqueue(400),TryDequeue" ];
    Exits 0, [ "ConcurrentStack"; "Push(1),TryPop"; "Push(2),TryPop" ];
    Exits 0, [ "MichaelScottQueue"; "Enqueue(1),TryDequeue"; "Enqueue(2),TryDequeue" ];
    Exits 0, [ "LazyListSet"; "Add(10),Remove(10)"; "Add(15),Contains(10)" ];
    Exits 0, [ "ConcurrentDictionary"; "TryAdd(10),TryGet(10)"; "Set(20),TryRemove(20)" ];
    Exits 0, [ "SemaphoreSlim"; "Wait"; "Release" ];
    (* a value removed twice and then inserted again: no false alarm *)
    Exits 0, [ "SegmentQueue"; "Enqueue(1),TryDequeue,TryDequeue"; "Enqueue(1)" ];
    Exits 0, [ "ConcurrentStack (Pre: non-atomic TryPopRange)"; "Push(1),TryPop,TryPop"; "Push(1)" ];
    (* seeded bugs are caught, also under --por *)
    Exits 1, fig1;
    Exits 1, fig1 @ [ "--por" ];
    Exits 1, counter1;
    Exits 1, counter1 @ [ "--por" ];
    Exits 1, [ "ConcurrentStack (Pre: non-atomic TryPopRange)"; "Push(1),Push(2)"; "TryPopRange(2)" ];
    Exits 1, [ "ManualResetEvent (Pre: lost signal)"; "Wait"; "Set" ];
    (* the reduction changes how many schedules run, never what is
       observed *)
    Por_preserves, [ "Counter"; "Inc,Get"; "Inc,Get" ];
    Por_preserves, [ "ConcurrentBag"; "Add(1),TryTake"; "Add(2),TryTake" ];
    Por_preserves, [ "ConcurrentStack"; "Push(1),TryPop"; "Push(2),TryPop" ];
    Por_preserves, [ "MichaelScottQueue"; "Enqueue(1),TryDequeue"; "Enqueue(2),TryDequeue" ];
    (* the frontier split, also under --por *)
    j1_j4, [ "ConcurrentQueue"; "Enqueue(200),TryDequeue"; "Enqueue(400),TryDequeue"; "-v" ];
    j1_j4, [ "ConcurrentBag"; "Add(10),Add(20)"; "TryTake"; "-v"; "--por" ];
    (* worker processes and checkpoints are invisible in the output, on
       passing and failing classes and on the witness search, whose probe
       counts follow the candidate order the workers' observation must
       keep *)
    Shard_agrees, [ "ConcurrentQueue"; "Enqueue(200),TryDequeue"; "Enqueue(400),TryDequeue" ];
    Shard_agrees, [ "ConcurrentStack"; "Push(1),TryPop"; "Push(2),TryPop" ];
    Shard_agrees, [ "ManualResetEvent (Pre: lost signal)"; "Wait"; "Set" ];
    Shard_agrees, [ "Counter"; "Inc,Get"; "Inc,Get"; "Get"; "--max-executions"; "3000" ];
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
    replay "queue" 1 fig1;
    replay "stack" 0 [ "ConcurrentStack"; "Push(1),TryPop"; "Push(2),TryPop" ];
    replay "set" 0 [ "LazyListSet"; "Add(10),Remove(10)"; "Add(15),Contains(10)" ];
    replay ~extra:[ "-j"; "4" ] "set" 0
      [ "LazyListSet"; "Add(10),Remove(10)"; "Add(15),Contains(10)" ];
    (* a cancelled check carries no verdict, also under -j *)
    Exits 2, [ "Counter"; "Inc,Get"; "Inc"; "--cancel-after"; "5"; "-j"; "2" ];
  ]

let equivalences =
  let stream ?(extra = []) ~stdin spec code lines =
    "monitor", Stream_exits { spec; extra; stdin; code }, lines
  in
  let fifo_violation =
    [
      {|{"t":0.0,"ev":"call","tid":0,"op":0,"name":"Enqueue","arg":"1"}|};
      {|{"t":0.1,"ev":"ret","tid":0,"op":0,"val":"unit"}|};
      {|{"t":0.2,"ev":"call","tid":0,"op":1,"name":"Enqueue","arg":"2"}|};
      {|{"t":0.3,"ev":"ret","tid":0,"op":1,"val":"unit"}|};
      {|{"t":0.4,"ev":"call","tid":1,"op":0,"name":"TryDequeue"}|};
      {|{"t":0.5,"ev":"ret","tid":1,"op":0,"val":"2"}|};
      {|{"t":0.6,"ev":"call","tid":1,"op":1,"name":"TryDequeue"}|};
      {|{"t":0.7,"ev":"ret","tid":1,"op":1,"val":"1"}|};
    ]
  in
  let auto_counter = [ "Counter"; "--max-tests"; "17"; "--max-executions"; "500" ] in
  let random_counter1 =
    [
      "Counter1 (unlocked inc)"; "-n"; "6"; "--rows"; "2"; "--cols"; "2"; "--max-executions";
      "300"; "--seed"; "42";
    ]
  in
  List.map (fun (relation, args) -> "check", relation, args) check_rows
  @ [
      (* lineup monitor's exit codes on a live stream: 0 clean, 1 violation,
         3 unsupported *)
      stream ~stdin:true "queue" 0
        [
          {|{"t":0.0,"ev":"call","tid":0,"op":0,"name":"Enqueue","arg":"1"}|};
          {|{"t":0.1,"ev":"ret","tid":0,"op":0,"val":"unit"}|};
          {|{"t":0.2,"ev":"call","tid":1,"op":0,"name":"TryDequeue"}|};
          {|{"t":0.3,"ev":"ret","tid":1,"op":0,"val":"1"}|};
        ];
      stream ~stdin:false "queue" 1 fifo_violation;
      (* a followed file ends by its verdict, not by its end; the
         violation shows at a window's check, so a window per quiescent
         point, or one when the producer pauses *)
      stream ~extra:[ "--follow"; "--min-batch"; "1" ] ~stdin:false "queue" 1 fifo_violation;
      stream ~extra:[ "--follow" ] ~stdin:false "queue" 1 fifo_violation;
      (* a key's chunk closes when the producer pauses, short of its
         chunk size *)
      stream ~extra:[ "--follow" ] ~stdin:false "set" 1
        [
          {|{"ev":"call","tid":0,"op":0,"name":"Add","arg":"1"}|};
          {|{"ev":"ret","tid":0,"op":0,"val":"true"}|};
          {|{"ev":"call","tid":1,"op":0,"name":"Add","arg":"1"}|};
          {|{"ev":"ret","tid":1,"op":0,"val":"true"}|};
        ];
      stream ~stdin:false "queue" 3
        [
          {|{"t":0.0,"ev":"call","tid":0,"op":0,"name":"Frobnicate"}|};
          {|{"t":0.1,"ev":"ret","tid":0,"op":0,"val":"unit"}|};
        ];
      (* -j never changes a live verdict: a call id used twice on two keys is
         a corrupt stream, and the first settled Unsupported stays *)
      stream ~extra:[ "-j"; "2" ] ~stdin:false "set" 3
        [
          {|{"ev":"call","tid":0,"op":0,"name":"Add","arg":"1"}|};
          {|{"ev":"call","tid":0,"op":0,"name":"Add","arg":"2"}|};
          {|{"ev":"ret","tid":0,"op":0,"val":"true"}|};
        ];
      stream ~extra:[ "-j"; "2" ] ~stdin:true "set" 3
        [
          {|{"ev":"call","tid":0,"op":0,"name":"Count"}|};
          {|{"ev":"ret","tid":0,"op":0,"val":"0"}|};
          {|{"ev":"call","tid":0,"op":1,"name":"Add","arg":"1"}|};
          {|{"ev":"ret","tid":0,"op":1,"val":"false"}|};
        ];
      (* the other subcommands: the catalog, the exit codes of a parallel
         sweep and of a seeded bug, and -j byte identity *)
      "list", Exits 0, [];
      "auto", Exits 0, auto_counter @ [ "-j"; "2" ];
      ( "auto",
        Exits 1,
        [ "Counter1 (unlocked inc)"; "--max-tests"; "50"; "--max-executions"; "500"; "-j"; "2" ] );
      "auto", j1_j4, auto_counter;
      "random", Exits 1, random_counter1;
      "random", j1_j4, random_counter1;
      "compare", j1_j4, counter1 @ [ "--tso" ];
      (* phase 1 fails: nothing is written *)
      ( "observe",
        Writes_nothing 1,
        [ "CancellationTokenSource"; "Cancel"; "IsCancellationRequested" ] );
    ]

let row_name (sub, relation, args) =
  (* the subcommand, when it is not check *)
  let on = if sub = "check" then "" else sub ^ " " in
  let extras extra = String.concat "" (List.map (( ^ ) " ") extra) in
  match relation with
  | Identical variants ->
    on
    ^ String.concat " and " (List.map (String.concat " ") variants)
    ^ " are byte-identical: " ^ List.hd args
  | Por_preserves -> on ^ "--por preserves the distinct histories: " ^ List.hd args
  | Shard_agrees -> "check -j 4 and shard-server --local 4 are byte-identical: " ^ List.hd args
  | Default_is_sc -> on ^ "the default and --memory sc are byte-identical: " ^ List.hd args
  | Exits code ->
    Fmt.str "%s exits %d%s" sub code (if args = [] then "" else ": " ^ String.concat " " args)
  | Writes_nothing code ->
    Fmt.str "%s -o FILE exits %d and writes nothing: %s" sub code (String.concat " " args)
  | Replay_agrees { spec; extra; code } ->
    Fmt.str "%s --trace and monitor %s --replay%s exit %d: %s" sub spec (extras extra) code
      (List.hd args)
  | Stream_exits { spec; extra; stdin; code } ->
    Fmt.str "%s %s%s exits %d on a live stream (%s)" sub spec (extras extra) code
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
    (fun ((sub, relation, args) as row) ->
      test (row_name row) (fun () ->
          let metrics = takes_metrics sub in
          (* the runs agree byte for byte, and are not usage errors, which
             would agree whatever the runs checked; the first run's exit
             code, report and metrics *)
          let agree runs =
            match run_cli_all ~metrics runs with
            | [] -> invalid_arg "no runs"
            | ((code, report, metrics) as first) :: rest ->
              Alcotest.(check bool) "not a usage error" true (code <> 124);
              List.iter
                (fun (code', report', metrics') ->
                  Alcotest.(check int) "exit code" code code';
                  Alcotest.(check string) "report" report report';
                  Alcotest.(check string) "metrics" metrics metrics')
                rest;
              first
          in
          (* the runs of [args] with each extra argument list agree *)
          let identical variants = agree (List.map (fun extra -> sub, args @ extra) variants) in
          match relation with
          | Identical variants -> ignore (identical variants)
          | Por_preserves -> (
            match run_cli_all [ sub, args; sub, args @ [ "--por" ] ] with
            | [ (off_code, _, off); (on_code, _, on) ] ->
              Alcotest.(check int) "exit code" 0 off_code;
              Alcotest.(check int) "--por exit code" 0 on_code;
              List.iter
                (fun k -> Alcotest.(check int) k (counter k off) (counter k on))
                [ "analyze.lineup.histories_distinct"; "analyze.lineup.histories_fingerprint" ];
              let executions = counter "explore.phase2.executions" in
              Alcotest.(check bool) "no more executions under --por" true
                (executions on <= executions off)
            | _ -> assert false)
          | Shard_agrees ->
            with_temp_dir (fun dir ->
                ignore
                  (agree
                     [
                       "check", args @ [ "-j"; "4"; "-v" ];
                       "shard-server", args @ [ "--dir"; dir; "--local"; "4"; "-v" ];
                     ]))
          | Default_is_sc ->
            let _, _, metrics = identical [ []; [ "--memory"; "sc" ] ] in
            Alcotest.(check bool) "no flushes key in the sc metrics" false
              (contains ~sub:"flushes" metrics)
          | Exits code ->
            let got, _, _ = run_cli ~metrics sub args in
            Alcotest.(check int) "exit code" code got
          | Writes_nothing code ->
            (* a fresh path, removed afterwards if the run wrote it *)
            with_temp_dir (fun file ->
                let got, _, _ = run_cli ~metrics sub (args @ [ "-o"; file ]) in
                Alcotest.(check int) "exit code" code got;
                Alcotest.(check bool) "no file written" false (Sys.file_exists file))
          | Replay_agrees { spec; extra; code } ->
            with_lines [] (fun trace ->
                let check_code, _, _ = run_cli sub (args @ [ "--trace"; trace ]) in
                let replay_code, _, _ = run_cli "monitor" ([ spec; trace; "--replay" ] @ extra) in
                Alcotest.(check int) "check exit code" code check_code;
                Alcotest.(check int) "replay exit code" check_code replay_code)
          | Stream_exits { spec; extra; stdin; code } ->
            with_lines args (fun stream ->
                let got, _, _ =
                  if stdin then run_cli ~input:stream sub (spec :: "-" :: extra)
                  else run_cli sub (spec :: stream :: extra)
                in
                Alcotest.(check int) "exit code" code got)))
    equivalences

let tests = golden_tests @ equivalence_tests
