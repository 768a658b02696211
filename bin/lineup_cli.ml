(* The Line-Up command-line tool.

   Subcommands:
     list      — show the catalog of implementations under test
     check     — run Check(X, m) on a named class with an explicit matrix
     random    — RandomCheck: sample k random tests of a given dimension
     auto      — AutoCheck: systematic enumeration with a test budget
     observe   — run phase 1 only and emit the observation file (Fig. 7)
     minimize  — shrink a failing test to a local minimum
     compare   — §5.6 comparison checkers + Line-Up over one shared exploration
     monitor   — decide linearizability of a live NDJSON event stream online *)

module H = Lineup_history
module Value = Lineup_value.Value
module Conc = Lineup_conc
module Checkers = Lineup_checkers
module Explore = Lineup_scheduler.Explore
module Pool = Lineup_parallel.Pool
module Metrics = Lineup_observe.Metrics
module Trace = Lineup_observe.Trace
open Lineup
open Cmdliner

(* --metrics / --trace plumbing. [f] receives the metrics registry option
   to thread into the checker entry points; the summary is written after
   [f] returns and the trace sink is closed even on exceptions. Neither
   flag changes anything printed to stdout. *)
let with_observability ~metrics_file ~trace_file f =
  let metrics = Option.map (fun (_ : string) -> Metrics.create ()) metrics_file in
  Trace.with_trace ~path:trace_file (fun () ->
      let result = f metrics in
      (match metrics_file, metrics with
       | Some path, Some m -> Metrics.write_file m ~path
       | _ -> ());
      result)

(* Exit-code contract (the CI gate): 0 — the check completed and found no
   violation; 1 — a linearizability violation, nondeterministic behavior, or
   a non-reproducing regression was reported; 2 — the check was cancelled
   before completing, so there is no verdict either way (never 0: a
   cancelled run must not pass a gate). Cmdliner's own codes (124 usage
   error, 125 internal error) are untouched, so `lineup auto … && …` gates
   a pipeline exactly on "checked and clean". *)
let exit_violation = 1
let exit_cancelled = 2

let exit_of_result r =
  if Check.passed r then 0 else if Check.cancelled r then exit_cancelled else exit_violation

let gate_exits =
  Cmd.Exit.info 0 ~doc:"if the check completed without reporting a violation."
  :: Cmd.Exit.info exit_violation
       ~doc:
         "if a linearizability violation or nondeterministic behavior was reported — the code \
          to gate CI pipelines on."
  :: Cmd.Exit.info exit_cancelled
       ~doc:
         "if the check was cancelled before completing: no verdict. Deliberately non-zero so \
          an interrupted check cannot pass a gate."
  :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults

let list_entries () =
  Fmt.pr "%-50s %-6s %-22s %s@." "ADAPTER" "VER" "EXPECTED" "DEFECT";
  List.iter
    (fun (e : Conc.Registry.entry) ->
      let expected =
        match e.expected with
        | Conc.Registry.Pass -> "pass"
        | Conc.Registry.Bug id -> "bug " ^ id
        | Conc.Registry.Intentional_nondeterminism id -> "nondet " ^ id
        | Conc.Registry.Intentional_nonlinearizability id -> "nonlin " ^ id
      in
      Fmt.pr "%-50s %-6s %-22s %s@."
        e.adapter.Adapter.name
        (match e.version with `Beta2 -> "beta2" | `Pre -> "pre")
        expected
        (Option.value ~default:"-" e.defect))
    Conc.Registry.all;
  `Ok 0

let find_adapter name =
  match Conc.Registry.find name with
  | e -> Ok e.Conc.Registry.adapter
  | exception Not_found ->
    Error
      (Fmt.str "unknown adapter %S; run `lineup list` for the catalog" name)

(* A matrix is given as column specs "Inc,Get" "Inc" — one argument per
   thread, operations comma-separated, arguments in parentheses:
   "Enqueue(200),TryDequeue". *)
let parse_invocation s =
  match String.index_opt s '(' with
  | None -> H.Invocation.make (String.trim s)
  | Some i ->
    if s.[String.length s - 1] <> ')' then
      Fmt.invalid_arg "malformed invocation %S (missing closing parenthesis)" s;
    let name = String.trim (String.sub s 0 i) in
    let arg = String.sub s (i + 1) (String.length s - i - 2) in
    match Value.of_string arg with
    | arg -> H.Invocation.make ~arg name
    | exception Invalid_argument msg -> Fmt.invalid_arg "malformed invocation %S: %s" s msg

let parse_column s =
  String.split_on_char ',' s |> List.filter (fun x -> String.trim x <> "")
  |> List.map parse_invocation

(* The adapter and test matrix a command line names, or the usage error
   that reports a bad one. *)
let adapter_and_test name columns =
  match find_adapter name with
  | Error _ as e -> e
  | Ok adapter -> (
    match Test_matrix.make (List.map parse_column columns) with
    | test -> Ok (adapter, test)
    | exception Invalid_argument msg -> Error msg)

let config_of ?(por = false) ?(memory = Lineup_runtime.Memory_model.Sc) ~pb ~cap ~classic () =
  Check.config_with ~preemption_bound:(Some pb) ~max_executions:cap ~classic_only:classic ~por
    ~memory ()

(* --cancel-after N: a deterministic cancellation token that fires after N
   polls — a testing aid exercising the Cancelled verdict and exit code. *)
let cancel_after = function
  | None -> None
  | Some n ->
    let polls = ref 0 in
    Some
      (fun () ->
        incr polls;
        !polls > n)

let check_cmd_run name columns pb cap classic por memory jobs frontier_depth cancel_polls
    verbose cache_dir metrics_file trace_file =
  match adapter_and_test name columns with
  | Error e -> `Error (false, e)
  | Ok (adapter, test) ->
    let config =
      let c = config_of ~por ~memory ~pb ~cap ~classic () in
      { c with Check.phase2_domains = jobs; phase2_frontier_depth = frontier_depth }
    in
    let cancelled = cancel_after cancel_polls in
    let r =
      with_observability ~metrics_file ~trace_file (fun metrics ->
          match cache_dir with
          | Some dir -> Obs_cache.check ~config ?metrics ?cancelled ~dir adapter test
          | None -> Check.run ~config ?metrics ?cancelled adapter test)
    in
    if verbose then Fmt.pr "%s@." (Report.check_result_to_string ~adapter ~test r)
    else Fmt.pr "%s@." (Report.summary r);
    `Ok (exit_of_result r)

let random_cmd_run name rows cols samples seed pb cap por memory stop_at_first domains
    metrics_file trace_file =
  match find_adapter name with
  | Error e -> `Error (false, e)
  | Ok adapter ->
    let config = config_of ~por ~memory ~pb ~cap ~classic:false () in
    let report =
      with_observability ~metrics_file ~trace_file (fun metrics ->
          Random_check.run ~config ~stop_at_first ?metrics ~domains ~seed ~samples
            ~draw:(fun rng ->
              Test_matrix.random ~rng ~invocations:adapter.Adapter.universe ~rows ~cols ())
            adapter)
    in
    Fmt.pr "%d tests: %d passed, %d failed@." (List.length report.Random_check.outcomes)
      report.Random_check.passed report.Random_check.failed;
    Fmt.pr "%a@." Explore.pp_stats report.Random_check.stats;
    (match report.Random_check.first_failure with
     | Some o ->
       Fmt.pr "@.first failing test:@.%s@."
         (Report.check_result_to_string ~adapter ~test:o.Random_check.test o.Random_check.result)
     | None -> ());
    if report.Random_check.failed = 0 then `Ok 0 else `Ok exit_violation

let auto_cmd_run name max_tests pb cap por memory domains metrics_file trace_file =
  match find_adapter name with
  | Error e -> `Error (false, e)
  | Ok adapter -> (
    match
      with_observability ~metrics_file ~trace_file (fun metrics ->
          Auto_check.run
            ~config:(config_of ~por ~memory ~pb ~cap ~classic:false ())
            ~domains ?metrics ~max_tests adapter)
    with
    | Auto_check.Failed { test; result; tests_run; stats } ->
      Fmt.pr "FAIL after %d tests@.%a@.%s@." tests_run Explore.pp_stats stats
        (Report.check_result_to_string ~adapter ~test result);
      `Ok exit_violation
    | Auto_check.Budget_exhausted { tests_run; stats } ->
      Fmt.pr "no violation in %d tests@.%a@." tests_run Explore.pp_stats stats;
      `Ok 0)

let observe_cmd_run name columns output =
  match adapter_and_test name columns with
  | Error e -> `Error (false, e)
  | Ok (adapter, test) -> (
    match Check.synthesize adapter test with
    | Error (verdict, phase1) ->
      Fmt.pr "%s@." (Report.summary (Check.phase1_failed verdict phase1));
      `Ok exit_violation
    | Ok (observation, phase1) ->
      (match output with
       | Some path ->
         Observation_file.save ~path observation;
         Fmt.pr "wrote %d serial histories to %s@." phase1.Check.histories path
       | None -> Fmt.pr "%s@." (Observation_file.to_string observation));
      `Ok 0)

let minimize_cmd_run name columns pb memory cancel_polls =
  match adapter_and_test name columns with
  | Error e -> `Error (false, e)
  | Ok (adapter, test) -> (
    let config = config_of ~memory ~pb ~cap:None ~classic:false () in
    let cancelled = cancel_after cancel_polls in
    match Minimize.reduce ~config ?cancelled adapter test with
    | r when Check.cancelled r.Minimize.check ->
      (* The initial check never finished: no verdict, nothing minimized. *)
      Fmt.pr "cancelled before a verdict (%d checks spent):@.%s@." r.Minimize.checks_spent
        (Report.summary r.Minimize.check);
      `Ok exit_cancelled
    | r ->
      Fmt.pr "minimal failing test (%d checks spent):@.%a@.%s@." r.Minimize.checks_spent
        Test_matrix.pp r.Minimize.test
        (Report.summary r.Minimize.check);
      `Ok 0
    | exception Invalid_argument msg -> `Error (false, msg))

let compare_cmd_run name columns por memory jobs frontier_depth tso metrics_file trace_file =
  match adapter_and_test name columns with
  | Error e -> `Error (false, e)
  | Ok (adapter, test) ->
    (* Single-pass §5.6/§5.7 comparison: one exploration of the concurrent
       schedules, with every checker attached as a pipeline analyzer — each
       schedule is executed exactly once no matter how many checkers
       consume it. Renders print in attachment order, Line-Up last, so -j
       never reorders the output. *)
    let threads = Test_matrix.num_threads test + 1 in
    let analyzers =
      [ Checkers.Race_detector.analyzer ~threads; Checkers.Serializability.analyzer () ]
      @ (if tso then [ Checkers.Tso_monitor.analyzer ~threads ] else [])
    in
    let config =
      {
        Check.default_config with
        Check.phase2 = { Check.default_config.Check.phase2 with Explore.por; memory };
        phase2_domains = jobs;
        phase2_frontier_depth = frontier_depth;
      }
    in
    let r =
      with_observability ~metrics_file ~trace_file (fun metrics ->
          Check.run ~config ?metrics ~analyzers adapter test)
    in
    List.iter (fun a -> Fmt.pr "%s" a.Check.a_render) r.Check.analyses;
    Fmt.pr "line-up: %s@." (Report.summary r);
    `Ok (exit_of_result r)

(* Multi-process sharding: `shard-server` runs phase 1 and the frontier
   warm-up locally, fans partitions out to `shard-worker` processes over a
   socket, checkpoints completed partitions into --dir, and merges in
   frontier order — the report, verdict, exit code and --metrics file are
   byte-identical to `check -j` on the same arguments. *)
let shard_server_cmd_run name columns pb cap classic por memory frontier_depth dir listen local
    resume halt_after verbose metrics_file trace_file =
  match adapter_and_test name columns with
  | Error e -> `Error (false, e)
  | Ok (adapter, test) -> (
    let config =
      let c = config_of ~por ~memory ~pb ~cap ~classic () in
      { c with Check.phase2_frontier_depth = frontier_depth }
    in
    match
      with_observability ~metrics_file ~trace_file (fun metrics ->
          Lineup_shard.Server.run ~config ?metrics ?listen ~local ~resume ?halt_after ~dir
            ~adapter ~test ())
    with
    | Lineup_shard.Server.Report r ->
      if verbose then Fmt.pr "%s@." (Report.check_result_to_string ~adapter ~test r)
      else Fmt.pr "%s@." (Report.summary r);
      `Ok (exit_of_result r)
    | Lineup_shard.Server.Halted _ ->
      (* Checkpoints are durable but there is no verdict: exit like a
         cancelled check so a halted sweep can never pass a gate. *)
      `Ok exit_cancelled
    | Lineup_shard.Server.Failed_run msg -> `Error (false, msg))

let shard_worker_cmd_run connect =
  let lookup name =
    match Conc.Registry.find name with
    | e -> Some e.Conc.Registry.adapter
    | exception Not_found -> None
  in
  `Ok (Lineup_shard.Worker.run ~connect ~lookup ())

(* Repro: run every failing entry's regression test and expect it to fail
   — the §5.1 regression workflow. *)
let repro_cmd_run which =
  let selected =
    List.filter
      (fun (id, _) -> Option.fold ~none:true ~some:(String.equal id) which)
      Conc.Registry.failing_entries
  in
  if selected = [] then `Error (false, "unknown root cause id")
  else begin
    let all_ok = ref true in
    List.iter
      (fun (id, (e : Conc.Registry.entry)) ->
        let r = Check.run e.adapter (Option.get e.regression) in
        let ok = not (Check.passed r) in
        if not ok then all_ok := false;
        Fmt.pr "%-8s %-50s %s %s@." id e.adapter.Adapter.name
          (if ok then "reproduced:" else "NOT REPRODUCED:")
          (Report.summary r))
      selected;
    if !all_ok then `Ok 0 else `Ok exit_violation
  end

(* ---------------- cmdliner wiring ---------------- *)

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CLASS" ~doc:"Adapter name (see $(b,list)).")

let columns_arg =
  Arg.(
    non_empty & pos_right 0 string []
    & info [] ~docv:"COLUMN"
        ~doc:
          "One test column (thread) per argument; operations comma-separated, e.g. \
           'Enqueue(200),TryDequeue'.")

let pb_arg =
  Arg.(value & opt int 2 & info [ "p"; "preemption-bound" ] ~doc:"Preemption bound for phase 2.")

let cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-executions" ] ~doc:"Cap on phase-2 executions per test.")

let classic_arg =
  Arg.(
    value & flag
    & info [ "classic" ]
        ~doc:"Check classic linearizability only (Definition 1; skip stuck-history checking).")

let por_arg =
  Arg.(
    value & flag
    & info [ "por" ]
        ~doc:
          "Enable dynamic partial-order reduction in phase 2: commuting interleavings of \
           independent shared accesses are explored once instead of once per order. The \
           verdict, the distinct-history set and the exit code are unchanged — only \
           $(b,explore.phase2.executions) shrinks (operation call/return order is never \
           reordered, so no history is lost). Phase 1 (serial mode) is never reduced: its \
           interleavings $(i,are) the specification. Off by default.")

let memory_conv =
  let parse s =
    match Lineup_runtime.Memory_model.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "expected sc, tso or pso, got %S" s))
  in
  Arg.conv ~docv:"MODEL" (parse, Lineup_runtime.Memory_model.pp)

let memory_arg =
  Arg.(
    value
    & opt memory_conv Lineup_runtime.Memory_model.Sc
    & info [ "memory" ] ~docv:"MODEL"
        ~doc:
          "Memory model for phase 2: $(b,sc) (default — sequential consistency, byte-identical \
           to previous releases), $(b,tso) (total store order: one FIFO store buffer per \
           thread, reads forward from the own buffer, buffer flushes are scheduler choices), \
           or $(b,pso) (partial store order: one buffer per thread and location, so stores to \
           different locations also reorder). Atomic read-modify-writes, lock and condition \
           operations, and $(b,Rt.fence) drain the issuing thread's buffers; every buffer \
           drains before an operation returns, so histories stay complete and the verdict is \
           sound for the chosen model. Phase 1 (the serial specification runs) is always \
           sequentially consistent.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Full report output.")

let domain_count =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected a domain count >= 1, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let jobs_arg =
  Arg.(
    value
    & opt domain_count (Pool.default_domains ())
    & info [ "j"; "jobs"; "domains" ] ~docv:"N"
        ~doc:
          "Fan independent $(b,Check) jobs out over $(docv) OCaml domains. Reports, verdicts \
           and exit codes are identical for every value of $(docv) — parallelism only changes \
           wall-clock time. Defaults to the machine's recommended domain count.")

let check_jobs_arg =
  Arg.(
    value
    & opt (some domain_count) None
    & info [ "j"; "jobs"; "domains" ] ~docv:"N"
        ~doc:
          "Fan phase 2 of this single check out over $(docv) OCaml domains by frontier \
           splitting: a sequential warm-up enumerates the shallow decision prefixes of the \
           schedule tree, and each prefix subtree is explored as an independent partition. \
           The verdict, report and metrics are identical for every value of $(docv) (the \
           partition set and its merge order are fixed by the frontier, not the domain \
           count). When omitted, phase 2 runs as one partition (a depth-0 frontier) on the \
           calling domain, whose metrics differ slightly from $(b,-j 1), which splits at \
           $(b,--frontier-depth): dedup tables are per partition.")

let frontier_depth_arg =
  Arg.(
    value
    & opt domain_count 4
    & info [ "frontier-depth" ] ~docv:"DEPTH"
        ~doc:
          "Decision-prefix length of the $(b,-j) warm-up (default 4). Deeper frontiers give \
           more, smaller partitions: better load balance, more warm-up work. Ignored without \
           $(b,-j).")

let cancel_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cancel-after" ] ~docv:"POLLS"
        ~doc:
          "Cancel the check after $(docv) cancellation polls (roughly, explored executions). \
           A testing aid: the run reports CANCELLED and exits with code 2, never 0 — used by \
           CI to pin the incomplete-check exit contract.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON summary of structured counters (executions, steps, dedup hit rate, \
           cache hits, ...) to $(docv). The summary is deterministic: byte-identical for every \
           $(b,-j) value and across repeated runs. See README.md for the schema.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Append one NDJSON event per line to $(docv) (per-execution outcomes, per-phase \
           timings, pool scheduling). Unlike $(b,--metrics), the trace carries wall-clock \
           timestamps and interleaves in completion order — it is explicitly non-deterministic.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ]
        ~doc:"Cache phase-1 observation files in this directory (Fig. 7 XML; reused across runs).")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the implementations under test")
    Term.(ret (const list_entries $ const ()))

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~exits:gate_exits
       ~doc:"Run the two-phase Check(X, m) on an explicit test matrix")
    Term.(
      ret
        (const check_cmd_run $ name_arg $ columns_arg $ pb_arg $ cap_arg $ classic_arg $ por_arg
         $ memory_arg $ check_jobs_arg $ frontier_depth_arg $ cancel_after_arg $ verbose_arg
         $ cache_dir_arg $ metrics_arg $ trace_arg))

let random_cmd =
  let rows = Arg.(value & opt int 3 & info [ "rows" ] ~doc:"Operations per thread.") in
  let cols = Arg.(value & opt int 3 & info [ "cols" ] ~doc:"Number of threads.") in
  let samples = Arg.(value & opt int 100 & info [ "n"; "samples" ] ~doc:"Sample size.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let stop = Arg.(value & flag & info [ "stop-at-first" ] ~doc:"Stop at the first failure.") in
  Cmd.v
    (Cmd.info "random" ~exits:gate_exits
       ~doc:"RandomCheck: check a uniform random sample of tests (Fig. 8)")
    Term.(
      ret
        (const random_cmd_run $ name_arg $ rows $ cols $ samples $ seed $ pb_arg $ cap_arg
         $ por_arg $ memory_arg $ stop $ jobs_arg $ metrics_arg $ trace_arg))

let auto_cmd =
  let max_tests =
    Arg.(value & opt int 1000 & info [ "max-tests" ] ~doc:"Budget of Check invocations.")
  in
  Cmd.v
    (Cmd.info "auto" ~exits:gate_exits
       ~doc:"AutoCheck: systematic test enumeration (Fig. 6)")
    Term.(
      ret
        (const auto_cmd_run $ name_arg $ max_tests $ pb_arg $ cap_arg $ por_arg $ memory_arg
         $ jobs_arg $ metrics_arg $ trace_arg))

let observe_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Observation file path.")
  in
  Cmd.v
    (Cmd.info "observe" ~exits:gate_exits
       ~doc:"Run phase 1 only and emit the observation file (Fig. 7)")
    Term.(ret (const observe_cmd_run $ name_arg $ columns_arg $ output))

let minimize_cmd =
  Cmd.v
    (Cmd.info "minimize" ~exits:gate_exits
       ~doc:"Shrink a failing test matrix to a local minimum")
    Term.(
      ret (const minimize_cmd_run $ name_arg $ columns_arg $ pb_arg $ memory_arg
           $ cancel_after_arg))

let compare_cmd =
  let tso_arg =
    Arg.(
      value
      & flag
      & info [ "tso" ]
          ~doc:
            "Also attach the §5.7 store-buffering monitor: flag potential \
             sequential-consistency violations under TSO (crossed concurrent store-load \
             windows, the Dekker litmus shape). Informational — patterns never affect the \
             exit code.")
  in
  Cmd.v
    (Cmd.info "compare" ~exits:gate_exits
       ~doc:
         "Run the comparison checkers of §5.6 (race detection, conflict-serializability) plus \
          Line-Up over a $(b,single) exploration: every checker rides the same schedule \
          enumeration as a per-execution analyzer, so each schedule executes exactly once \
          regardless of checker count. Exits like $(b,check): 0 when Line-Up found no \
          violation, 1 on a Line-Up violation (race and serializability warnings are \
          informational — the paper's false alarms on lock-free code), 2 when cancelled.")
    Term.(
      ret
        (const compare_cmd_run $ name_arg $ columns_arg $ por_arg $ memory_arg $ check_jobs_arg
         $ frontier_depth_arg $ tso_arg $ metrics_arg $ trace_arg))

let shard_server_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Run directory: the manifest, the phase-1 and frontier checkpoints and one file \
             per completed partition land here (see README.md for the layout). A killed \
             server restarts from it with $(b,--resume).")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Socket to accept workers on: a Unix-domain path, or $(i,host:port) for TCP. \
             Defaults to $(i,DIR)/sock.")
  in
  let local_arg =
    Arg.(
      value
      & opt int 0
      & info [ "local" ] ~docv:"N"
          ~doc:
            "Convenience mode: spawn $(docv) $(b,shard-worker) child processes of this \
             executable connected to the server's socket — a one-machine sweep needs no \
             second command.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume the sweep recorded in $(b,--dir): phase 1, the frontier and every valid \
             partition checkpoint are loaded instead of recomputed, and only unfinished \
             partitions are dispatched. The directory must have been recorded by the exact \
             same arguments (a configuration fingerprint is verified). The final report and \
             metrics are byte-identical to an uninterrupted run.")
  in
  let halt_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "halt-after" ] ~docv:"K"
          ~doc:
            "Stop the server after $(docv) partition checkpoints without merging, exiting \
             with code 2 — a deterministic stand-in for a kill, used by the kill-and-resume \
             tests.")
  in
  Cmd.v
    (Cmd.info "shard-server" ~exits:gate_exits
       ~doc:
         "Run one check as a multi-process sweep: phase 1 and the frontier warm-up run \
          locally, the frontier partitions fan out to $(b,shard-worker) processes, completed \
          partitions are checkpointed into $(b,--dir), and the results merge in canonical \
          frontier order. The report, verdict, exit code and $(b,--metrics) file are \
          byte-identical to $(b,check -j) on the same arguments, for any worker count and \
          across kill/$(b,--resume) cycles.")
    Term.(
      ret
        (const shard_server_cmd_run $ name_arg $ columns_arg $ pb_arg $ cap_arg $ classic_arg
         $ por_arg $ memory_arg $ frontier_depth_arg $ dir_arg $ listen_arg
         $ local_arg $ resume_arg $ halt_after_arg $ verbose_arg $ metrics_arg $ trace_arg))

let shard_worker_cmd =
  let connect_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Server socket: a Unix-domain path, or $(i,host:port) for TCP.")
  in
  Cmd.v
    (Cmd.info "shard-worker"
       ~doc:
         "Worker process for $(b,shard-server): connects, receives the job context, runs \
          partition subtrees and ships serialized results back until told to shut down. \
          Normally spawned by $(b,--local); run it by hand (or on other machines with a TCP \
          $(b,--listen)) to scale a sweep out.")
    Term.(ret (const shard_worker_cmd_run $ connect_arg))

let repro_cmd =
  let which =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ID"
          ~doc:"Root cause id (A, A', B, ... O, Counter1; see $(b,list)); all when omitted.")
  in
  Cmd.v
    (Cmd.info "repro" ~exits:gate_exits
       ~doc:"Reproduce the registered root causes on their minimal regression tests (§5.1)")
    Term.(ret (const repro_cmd_run $ which))

(* ---------------- monitor ---------------- *)

(* Streaming monitor exit contract: 0/1 mirror the check gate; 3 means the
   stream left the monitored fragment (off-vocabulary operation, no
   quiescent point, malformed line) — no verdict either way, and distinct
   from 2 so "cancelled" and "unsupported" stay distinguishable in CI. *)
let exit_unsupported = 3

let monitor_exits =
  Cmd.Exit.info 0 ~doc:"if the stream ended (or was replayed) without a violation."
  :: Cmd.Exit.info exit_violation ~doc:"if the stream is not linearizable."
  :: Cmd.Exit.info exit_unsupported
       ~doc:
         "if the stream left the monitored fragment (unsupported operation, malformed line, \
          no quiescent point within the window bound): no verdict either way."
  :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults

let verdict_name = function
  | Lineup_spec.Monitor.Accept -> "OK"
  | Lineup_spec.Monitor.Reject -> "VIOLATION"
  | Lineup_spec.Monitor.Unsupported reason -> "UNSUPPORTED: " ^ reason

let monitor_cmd_run spec_name file replay follow jobs min_batch max_window report_every
    metrics_file trace_file =
  match Lineup_spec.Specs.find spec_name with
  | None ->
    `Error
      ( false,
        Fmt.str "unknown specification %S (expected one of: %s)" spec_name
          (String.concat ", " Lineup_spec.Specs.names) )
  | Some _ when replay && follow ->
    `Error (false, "--follow waits for more input; --replay needs a finite recording")
  | Some spec -> (
    let opts =
      {
        Lineup_monitor.Driver.default_opts with
        domains = jobs;
        min_batch;
        max_window;
        report_every;
        follow;
      }
    in
    let run_on ic =
      with_observability ~metrics_file ~trace_file (fun metrics ->
          if replay then begin
            let per_hist, outcome =
              Lineup_monitor.Driver.replay ~spec ~opts ?metrics ic
            in
            let bad =
              List.filter_map
                (fun (h, v) ->
                  match v with Lineup_spec.Monitor.Accept -> None | _ -> Some (h, v))
                per_hist
            in
            Fmt.pr "monitor: replayed %d histories, %d ops — %s@."
              (List.length per_hist) outcome.Lineup_monitor.Driver.ops
              (verdict_name outcome.Lineup_monitor.Driver.verdict);
            List.iteri
              (fun i (h, v) ->
                if i < 5 then
                  Fmt.pr "  history %s: %s@."
                    (match h with Some h -> string_of_int h | None -> "untagged")
                    (verdict_name v))
              bad;
            if List.length bad > 5 then
              Fmt.pr "  ... and %d more non-accepting histories@." (List.length bad - 5);
            outcome
          end
          else begin
            let outcome = Lineup_monitor.Driver.run ~spec ~opts ?metrics ic in
            Fmt.pr "monitor: %d ops, %d windows, resident peak %d — %s@."
              outcome.Lineup_monitor.Driver.ops outcome.Lineup_monitor.Driver.windows
              outcome.Lineup_monitor.Driver.resident_peak
              (verdict_name outcome.Lineup_monitor.Driver.verdict);
            outcome
          end)
    in
    match
      if file = "-" then run_on stdin
      else
        let ic = open_in file in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> run_on ic)
    with
    | exception Sys_error e -> `Error (false, e)
    | outcome -> (
      match outcome.Lineup_monitor.Driver.verdict with
      | Lineup_spec.Monitor.Accept -> `Ok 0
      | Lineup_spec.Monitor.Reject -> `Ok exit_violation
      | Lineup_spec.Monitor.Unsupported _ -> `Ok exit_unsupported))

let monitor_cmd =
  let spec_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:
            (Fmt.str "Specification to monitor against: one of %s."
               (String.concat ", " Lineup_spec.Specs.names)))
  in
  let file_pos =
    Arg.(
      value
      & pos 1 string "-"
      & info [] ~docv:"FILE"
          ~doc:
            "NDJSON event stream: a file, a FIFO, or $(b,-) for stdin (the default). One \
             call/return event per line in the $(b,--trace) schema; other event kinds are \
             skipped, so a raw $(b,lineup check --trace) file is valid input.")
  in
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Treat the stream as a finite recording of complete histories: group events by \
             their $(b,hist) tag and monitor each group as an independent session (fanned out \
             over $(b,-j) domains). The exit code agrees with the offline checker on the same \
             histories — the CI equivalence gate.")
  in
  let follow_arg =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Read on at end of input instead of finalizing. On a growing file, end of input \
             only means that the file has not grown yet, so the monitor waits for what a \
             producer appends; on a FIFO, it only means that every current writer closed, so \
             the monitor waits for the next writer session. A line cut at end of input waits \
             for its rest. Whenever the input pauses, the engine checks the operations it \
             holds that no pending call overlaps, so a violation is reported without waiting \
             for more input. A followed run ends only on a verdict (exit 1 or 3), never by \
             stream end; incompatible with $(b,--replay).")
  in
  let monitor_jobs_arg =
    Arg.(
      value
      & opt domain_count 1
      & info [ "j"; "jobs"; "domains" ] ~docv:"N"
          ~doc:
            "With $(b,--replay), check $(docv) histories concurrently; a live stream is checked on \
             one domain. Verdicts and exit codes are identical for every value.")
  in
  let min_batch_arg =
    Arg.(
      value
      & opt int 512
      & info [ "min-batch" ] ~docv:"N"
          ~doc:
            "Queue and stack engines only: run a window check at the first quiescent point \
             after $(docv) completed operations, then garbage-collect the decided prefix. \
             Smaller values detect violations sooner; larger values amortize better. The \
             other classes check each key in chunks of 16 operations. With $(b,--follow), \
             every engine also checks what it holds whenever the input pauses.")
  in
  let max_window_arg =
    Arg.(
      value
      & opt int 1_048_576
      & info [ "max-window" ] ~docv:"N"
          ~doc:
            "Give up (exit 3) if no quiescent point occurs within $(docv) operations — the \
             bound on retained state for adversarial streams.")
  in
  let report_every_arg =
    Arg.(
      value
      & opt int 0
      & info [ "report-every" ] ~docv:"N"
          ~doc:
            "Emit a progress line on stderr (and a $(b,monitor.tick) trace event) every \
             $(docv) events. 0 (default) disables.")
  in
  Cmd.v
    (Cmd.info "monitor" ~exits:monitor_exits
       ~doc:
         "Monitor linearizability of a live NDJSON call/return event stream online \
          (decrease-and-conquer engines for queue/stack, chunked feasible-state checking for \
          the rest), with windowed GC keeping memory bounded over unbounded streams")
    Term.(
      ret
        (const monitor_cmd_run $ spec_pos $ file_pos $ replay_arg $ follow_arg
       $ monitor_jobs_arg $ min_batch_arg $ max_window_arg $ report_every_arg $ metrics_arg
       $ trace_arg))

let main =
  let man =
    [
      `S Manpage.s_exit_status;
      `P
        "$(b,check), $(b,random), $(b,auto), $(b,observe), $(b,compare) and $(b,repro) exit with 0 \
         when the check completed and found no violation, and with 1 when a linearizability \
         violation or nondeterministic behavior was reported — so any of them can gate a CI \
         pipeline directly. A check that was cancelled before completing exits with 2: it carries \
         no verdict and must not pass a gate. $(b,monitor) adds 3: the stream left the monitored \
         fragment, so there is no verdict either way. Usage errors use cmdliner's standard codes \
         (124 command-line error, 125 internal error). The $(b,-j) flag never changes results or \
         exit codes, only wall-clock time.";
    ]
  in
  Cmd.group
    (Cmd.info "lineup" ~version:"1.0.0" ~man
       ~doc:"A complete and automatic linearizability checker (PLDI 2010 reproduction)")
    [
      list_cmd; check_cmd; random_cmd; auto_cmd; observe_cmd; minimize_cmd; compare_cmd;
      repro_cmd; shard_server_cmd; shard_worker_cmd; monitor_cmd;
    ]

let () = exit (Cmd.eval' main)
