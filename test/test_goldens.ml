(* Byte-identity goldens: the report, --metrics file and exit code of a
   CLI run. The check cases pin every counter the phase-2 optimizations
   must leave alone — dedup_hits, witness_probes, stuck_probes and
   histories_fingerprint among them; the others pin the paths that share
   the phase-2 pipeline: a cancelled run, a weak-memory reduced run, and
   [compare] with attached analyzers, including a class whose phase 1
   fails; one pins the usage error of a malformed column. A golden changes
   only with a deliberate, documented output
   change; regenerate one with

     lineup_cli SUBCOMMAND --metrics goldens/NAME.metrics.json ARGS... > goldens/NAME.report *)

open Helpers

let cli = Filename.concat (Filename.concat ".." "bin") "lineup_cli.exe"
let golden name ext = Filename.concat "goldens" (name ^ ext)
let read path = In_channel.with_open_bin path In_channel.input_all

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
  ]

let run_cli subcommand args =
  let report = Filename.temp_file "lineup-golden" ".report" in
  let metrics = Filename.temp_file "lineup-golden" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ report; metrics ])
    (fun () ->
      let out = Unix.openfile report [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      let argv = cli :: subcommand :: "--metrics" :: metrics :: args in
      let pid =
        Fun.protect
          ~finally:(fun () -> Unix.close out)
          (fun () -> Unix.create_process cli (Array.of_list argv) Unix.stdin out Unix.stderr)
      in
      let code =
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
      in
      code, read report, read metrics)

let tests =
  List.map
    (fun (name, want_code, subcommand, args) ->
      test (subcommand ^ " output is byte-identical to the golden: " ^ name) (fun () ->
          let code, report, metrics = run_cli subcommand args in
          Alcotest.(check int) "exit code" want_code code;
          Alcotest.(check string) "report" (read (golden name ".report")) report;
          Alcotest.(check string) "metrics" (read (golden name ".metrics.json")) metrics))
    cases
