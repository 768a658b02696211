(* The analyzer pipeline: N checkers over ONE exploration.

   The load-bearing properties:
   - single-pass results are byte-identical to the legacy one-exploration-
     per-checker paths, on correct and buggy adapters alike (each analyzer
     sees every execution because the exploration stops early only when
     every attached analyzer is done);
   - analyzer-state merges are order-insensitive for the set-union /
     counter accumulators (qcheck), so the frontier-split path cannot
     depend on partition completion order;
   - `phase2_domains = Some j` gives byte-identical renders and verdicts
     for every j, and matches the run without it (the depth-0 frontier);
   - one pipeline run is ONE exploration: the per-analyzer execution
     counters all equal `explore.phase2.executions`;
   - the shared-access logging flag is scoped exception-safely. *)

open Helpers
module Exec_ctx = Lineup_runtime.Exec_ctx
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
module Conc = Lineup_conc
module Checkers = Lineup_checkers
open Lineup

(* hand-built logs (same constructors as test_checkers) *)
let acc ?(volatile = false) tid loc kind =
  Exec_ctx.Access { tid; loc; loc_name = Fmt.str "loc%d" loc; kind; volatile }

let acq tid lock = Exec_ctx.Lock_acquire { tid; lock; name = Fmt.str "lock%d" lock }
let rel tid lock = Exec_ctx.Lock_release { tid; lock; name = Fmt.str "lock%d" lock }
let op_start tid op_index = Exec_ctx.Op_start { tid; op_index }
let op_end tid op_index = Exec_ctx.Op_end { tid; op_index }

(* A synthetic run_result carrying just an access log — all the comparison
   analyzers consume. *)
let rr log =
  {
    Harness.history = history [];
    outcome =
      {
        Explore.exec_end = Explore.All_finished;
        steps = 0;
        preemptions = 0;
        yields = 0;
        flushes = 0;
        choice_points = 0;
        errors = [];
        por_pruned = false;
      };
    log;
  }

(* ------------------------------------------------------------------ *)
(* qcheck: merge order-insensitivity                                   *)
(* ------------------------------------------------------------------ *)

let entry_gen =
  let open QCheck.Gen in
  let tid = int_range 0 2 in
  let loc = int_range 1 3 in
  let kind = oneofl [ Exec_ctx.Read; Exec_ctx.Write; Exec_ctx.Rmw ] in
  frequency
    [
      (6, map3 (fun t l k -> acc t l k) tid loc kind);
      (1, map2 acq tid (int_range 8 9));
      (1, map2 rel tid (int_range 8 9));
      (1, map2 op_start tid (int_range 0 2));
      (1, map2 op_end tid (int_range 0 2));
    ]

let logs_gen =
  QCheck.Gen.(list_size (int_range 1 6) (list_size (int_range 0 12) entry_gen))

(* A list of per-sub-exploration logs plus a permutation of it. *)
let logs_and_perm_arb =
  QCheck.make
    ~print:(fun (logs, _) -> Fmt.str "%d logs" (List.length logs))
    QCheck.Gen.(logs_gen >>= fun logs -> shuffle_l logs >>= fun p -> return (logs, p))

(* Build one state per log, then fold-merge in the given order; the
   observable outcome (render + metrics) must not depend on the order. *)
let merged_outcome analyzer logs =
  let states =
    List.map
      (fun log ->
        let p = Analyzer.fresh analyzer in
        ignore (Analyzer.step p (rr log));
        p)
      logs
  in
  let m = List.fold_left Analyzer.merge (List.hd states) (List.tl states) in
  Analyzer.render m, Analyzer.metrics m

let merge_order_insensitive name mk =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(name ^ " merge is order-insensitive")
       ~count:150 logs_and_perm_arb
       (fun (logs, permuted) -> merged_outcome (mk ()) logs = merged_outcome (mk ()) permuted))

(* ------------------------------------------------------------------ *)
(* Single pass vs legacy per-checker runs                              *)
(* ------------------------------------------------------------------ *)

let comparison_analyzers test =
  let threads = Test_matrix.num_threads test + 1 in
  [ Checkers.Race_detector.analyzer ~threads; Checkers.Serializability.analyzer () ]

(* The renders the legacy CLI used to assemble from the standalone
   entry points — the byte-level contract the analyzers must preserve. *)
let legacy_races_render ~adapter ~test =
  let races = Checkers.Race_detector.run ~adapter ~test () in
  Fmt.str "data races: %d@.%a" (List.length races)
    Fmt.(list ~sep:nop (fun ppf r -> Fmt.pf ppf "  %a@." Checkers.Race_detector.pp_race r))
    races

let legacy_ser_render ~adapter ~test =
  let report = Checkers.Serializability.run ~adapter ~test () in
  Fmt.str "conflict-serializability: %d of %d executions violate@."
    report.Checkers.Serializability.violations report.Checkers.Serializability.executions

let check_single_pass_matches_legacy ~adapter ~test () =
  let r = Check.run ~analyzers:(comparison_analyzers test) adapter test in
  let nth i = List.nth r.Check.analyses i in
  Alcotest.(check string) "races render" (legacy_races_render ~adapter ~test) (nth 0).Check.a_render;
  Alcotest.(check string) "ser render" (legacy_ser_render ~adapter ~test) (nth 1).Check.a_render;
  let legacy = Check.run adapter test in
  Alcotest.(check string) "line-up summary" (Report.summary legacy) (Report.summary r)

let counter_test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

(* ------------------------------------------------------------------ *)
(* The suite                                                           *)
(* ------------------------------------------------------------------ *)

exception Boom

(* An analyzer whose step raises — the logging-restoration probe. *)
let raising_analyzer () =
  let sid = Stdlib.Type.Id.make () in
  let module A = struct
    type state = unit ref

    let id = sid
    let name = "boom"
    let needs_log = true
    let init () = ref ()
    let step _ _ = raise Boom
    let merge a _ = a
    let metrics _ = []
    let render _ = "boom\n"
    let violation _ = false
  end in
  Analyzer.T (module A)

let suite =
  [
    test "with_logging restores the previous flag on exception" (fun () ->
        Exec_ctx.set_logging false;
        (try
           Exec_ctx.with_logging true (fun () ->
               Alcotest.(check bool) "enabled inside" true (Exec_ctx.logging_enabled ());
               raise Exit)
         with Exit -> ());
        Alcotest.(check bool) "restored" false (Exec_ctx.logging_enabled ());
        Exec_ctx.with_logging true (fun () ->
            Alcotest.(check bool) "nested restore" false
              (Exec_ctx.with_logging false Exec_ctx.logging_enabled));
        Alcotest.(check bool) "off again" false (Exec_ctx.logging_enabled ()));
    test "pipeline restores logging when an analyzer raises mid-exploration" (fun () ->
        Exec_ctx.set_logging false;
        let adapter = Conc.Counters.correct in
        (match
           Pipeline.run Explore.default_config
             ~analyzers:[ raising_analyzer () ]
             ~adapter ~test:counter_test ()
         with
        | _ -> Alcotest.fail "expected the analyzer's exception to propagate"
        | exception Boom -> ());
        Alcotest.(check bool) "logging restored" false (Exec_ctx.logging_enabled ()));
    test "pipeline rejects an empty analyzer list" (fun () ->
        match
          Pipeline.run Explore.default_config ~analyzers:[] ~adapter:Conc.Counters.correct
            ~test:counter_test ()
        with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    merge_order_insensitive "races" (fun () -> Checkers.Race_detector.analyzer ~threads:3);
    merge_order_insensitive "serializability" (fun () -> Checkers.Serializability.analyzer ());
    merge_order_insensitive "tso" (fun () -> Checkers.Tso_monitor.analyzer ~threads:3);
    test "single pass = legacy per-checker runs (correct counter)"
      (check_single_pass_matches_legacy ~adapter:Conc.Counters.correct ~test:counter_test);
    test "single pass = legacy per-checker runs (buggy counter)"
      (check_single_pass_matches_legacy ~adapter:Conc.Counters.buggy_unlocked ~test:counter_test);
    test "single pass = legacy per-checker runs (correct queue)"
      (check_single_pass_matches_legacy ~adapter:Conc.Concurrent_queue.correct
         ~test:
           (Test_matrix.make
              [ [ inv_int "Enqueue" 200 ]; [ inv "IsEmpty"; inv "TryDequeue" ] ]));
    test "single-pass renders and verdict are -j invariant" (fun () ->
        let adapter = Conc.Counters.buggy_unlocked in
        let run config =
          let r = Check.run ~config ~analyzers:(comparison_analyzers counter_test) adapter counter_test in
          List.map (fun a -> a.Check.a_render) r.Check.analyses, Report.summary r
        in
        let mono = run Check.default_config in
        let j1 = run (Check.config_with ~phase2_domains:1 ()) in
        let j4 = run (Check.config_with ~phase2_domains:4 ()) in
        Alcotest.(check (pair (list string) string)) "-j 1 = monolithic" mono j1;
        Alcotest.(check (pair (list string) string)) "-j 4 = -j 1" j1 j4);
    test "one pipeline run is one exploration (metrics)" (fun () ->
        let m = Metrics.create () in
        let r =
          Check.run ~metrics:m ~analyzers:(comparison_analyzers counter_test)
            Conc.Counters.correct counter_test
        in
        Alcotest.(check bool) "passes" true (Check.passed r);
        let executions = Metrics.get m "explore.phase2.executions" in
        Alcotest.(check bool) "explored something" true (executions > 0);
        Alcotest.(check int) "races analyzer saw each execution once" executions
          (Metrics.get m "analyze.races.executions");
        Alcotest.(check int) "ser analyzer saw each execution once" executions
          (Metrics.get m "analyze.serializability.executions"));
    test "analysis metrics surface in the check result" (fun () ->
        let r =
          Check.run ~analyzers:(comparison_analyzers counter_test) Conc.Counters.buggy_unlocked
            counter_test
        in
        let races = List.nth r.Check.analyses 0 in
        Alcotest.(check string) "name" "races" races.Check.a_name;
        Alcotest.(check bool) "informational" false races.Check.a_violation;
        Alcotest.(check bool) "counted races" true
          (List.assoc "races" races.Check.a_metrics > 0));
  ]

let tests = suite
