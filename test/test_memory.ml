(* Relaxed-memory exploration: TSO/PSO store buffers as scheduler choices.

   The load-bearing properties:
   - `--memory sc` (the default) is byte-identical to the pre-weak-memory
     checker: same summary, same metrics JSON, and no flushes key ever
     appears (qcheck over random counter matrices);
   - the fence-free Dekker adapter passes under SC (every sequentially
     consistent interleaving preserves Peterson's mutual exclusion — the
     seeded bug is *provably* invisible to SC exploration) and fails under
     both tso and pso, while the fenced variant passes everywhere;
   - weak-memory runs are -j invariant (flush choices ride the prefix
     codec across the frontier split);
   - the §5.7 store-buffering monitor cross-validates the real weak
     exploration: the adapter it flags genuinely fails under `--memory
     tso`, and the adapter it passes genuinely survives it;
   - Shared_var.peek forwards from the blocked thread's own store buffer
     (a thread that buffered a write and then blocks on peeking it must
     wake, not deadlock);
   - bounded --por, which lets a thread step sleep across the flushes it
     commutes with, keeps the verdict, distinct histories and fingerprint
     of the unreduced weak explorer (qcheck over random matrices), while
     the fence-free litmus still fails within a handful of executions. *)

open Helpers
module Explore = Lineup_scheduler.Explore
module Memory_model = Lineup_runtime.Memory_model
module Var = Lineup_runtime.Shared_var
module Rt = Lineup_runtime.Rt
module Metrics = Lineup_observe.Metrics
module Tso = Lineup_checkers.Tso_monitor
module Conc = Lineup_conc
open Lineup

let dekker_test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

let run_with ?phase2_domains ?max_executions ?(por = false) ?pb ~memory adapter test =
  let m = Metrics.create () in
  let config =
    match pb with
    | None -> Check.config_with ?phase2_domains ?max_executions ~por ~memory ()
    | Some b ->
      Check.config_with ~preemption_bound:(Some b) ?phase2_domains ?max_executions ~por ~memory
        ()
  in
  let r = Check.run ~config ~metrics:m adapter test in
  r, m

(* ------------------------------------------------------------------ *)
(* SC byte-identity                                                    *)
(* ------------------------------------------------------------------ *)

let sc_identity adapter test () =
  let m_default = Metrics.create () in
  let r_default = Check.run ~metrics:m_default adapter test in
  let r_sc, m_sc = run_with ~memory:Memory_model.Sc adapter test in
  Alcotest.(check string) "summary" (Report.summary r_default) (Report.summary r_sc);
  Alcotest.(check string) "metrics json" (Metrics.to_json m_default) (Metrics.to_json m_sc);
  Alcotest.(check bool) "no flushes key under sc" false
    (List.mem_assoc "explore.phase2.flushes" (Metrics.to_assoc m_sc))

let counter_ops = [| inv "Inc"; inv "Get"; inv_int "Set" 5 |]

let matrix_gen =
  let open QCheck.Gen in
  let op = map (fun i -> counter_ops.(i)) (int_bound 2) in
  let col = list_size (int_range 1 2) op in
  map Test_matrix.make (list_size (int_range 1 2) col)

let matrix_arb = QCheck.make ~print:(Fmt.to_to_string Test_matrix.pp) matrix_gen

let qcheck_sc_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"explicit sc = default on random counter matrices" ~count:25
       matrix_arb (fun test ->
         let m_default = Metrics.create () in
         let r_default = Check.run ~metrics:m_default Conc.Counters.correct test in
         let r_sc, m_sc = run_with ~memory:Memory_model.Sc Conc.Counters.correct test in
         Report.summary r_default = Report.summary r_sc
         && Metrics.to_json m_default = Metrics.to_json m_sc
         && not (List.mem_assoc "explore.phase2.flushes" (Metrics.to_assoc m_sc))))

(* ------------------------------------------------------------------ *)
(* The seeded fence bug                                                *)
(* ------------------------------------------------------------------ *)

let fence_free = Conc.Dekker.fence_free
let fenced = Conc.Dekker.fenced

let peek_forwards_adapter =
  (* writes a flag, then blocks until its own peek sees it — only read
     forwarding from the issuing thread's buffer makes this wake under
     tso/pso (the write is still buffered when the wake predicate runs) *)
  let create () =
    let flag = Var.make ~name:"fw.flag" false in
    let invoke (i : Lineup_history.Invocation.t) =
      match i.Lineup_history.Invocation.name with
      | "SetAndWait" ->
        Var.write flag true;
        Rt.block ~wake:(fun () -> Var.peek flag) "own write visible";
        Lineup_value.Value.unit
      | n -> Fmt.invalid_arg "peek_forwards: %s" n
    in
    { Adapter.invoke }
  in
  Adapter.make ~name:"peek-forwards" ~universe:[ inv "SetAndWait" ] create

let counter_test_matrix = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

(* ------------------------------------------------------------------ *)
(* Bounded --por under weak memory                                      *)
(* ------------------------------------------------------------------ *)

let phase2_executions m = Metrics.get m "explore.phase2.executions"
let distinct m = Metrics.get m "analyze.lineup.histories_distinct"
let fingerprint m = Metrics.get m "analyze.lineup.histories_fingerprint"
let weak_models = [ Memory_model.Tso; Memory_model.Pso ]

let weak_adapters =
  [|
    Conc.Counters.correct;
    Conc.Concurrent_queue.correct;
    Conc.Segment_queue.adapter;
    Conc.Concurrent_stack.correct;
  |]

(* Executions allowed to the unreduced side of one case: ~0.5 s here. A
   case the cap cuts covers only part of its tree, so it is discarded
   rather than compared. *)
let unreduced_cap = 20_000

let weak_history_set ?(por = false) ~pb ~memory adapter test =
  history_set
    {
      Explore.default_config with
      preemption_bound = Some pb;
      max_executions = Some unreduced_cap;
      por;
      memory;
    }
    ~adapter ~test

(* Two threads of one or two operations each. *)
let weak_case_gen =
  let open QCheck.Gen in
  map
    (fun ((a, tso, pb), (rows, seed)) ->
      let adapter = weak_adapters.(a) in
      let memory = if tso then Memory_model.Tso else Memory_model.Pso in
      let test =
        Test_matrix.random ~rng:(Random.State.make [| seed |])
          ~invocations:adapter.Adapter.universe ~rows ~cols:2 ()
      in
      adapter, memory, pb, test)
    (pair
       (triple (int_bound (Array.length weak_adapters - 1)) bool (int_bound 1))
       (pair (int_range 1 2) small_nat))

let print_weak_case (adapter, memory, pb, test) =
  Fmt.str "%s --memory %s -p %d@.%a" adapter.Adapter.name (Memory_model.to_string memory) pb
    Test_matrix.pp test

let qcheck_weak_por_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"weak --por = unreduced: verdict, distinct histories, fingerprint" ~count:40
       (QCheck.make ~print:print_weak_case weak_case_gen)
       (fun (adapter, memory, pb, test) ->
         let r_off, m_off =
           run_with ~max_executions:(Some unreduced_cap) ~pb ~memory adapter test
         in
         QCheck.assume (phase2_executions m_off < unreduced_cap);
         let r_on, m_on = run_with ~por:true ~pb ~memory adapter test in
         let same_histories =
           if Check.passed r_off then
             distinct m_on = distinct m_off
             && fingerprint m_on = fingerprint m_off
             && phase2_executions m_on <= phase2_executions m_off
           else begin
             (* A failing check stops at its first violation, and the
                reduced DFS, which never picks a sleeping thread, may visit
                the remaining siblings of a node in another order — so the
                two stop at different points. Compare whole explorations. *)
             let set_off, st_off = weak_history_set ~pb ~memory adapter test in
             QCheck.assume (st_off.Explore.executions < unreduced_cap);
             let set_on, st_on = weak_history_set ~por:true ~pb ~memory adapter test in
             set_on = set_off && st_on.Explore.executions <= st_off.Explore.executions
           end
         in
         Check.failed r_on = Check.failed r_off && same_histories))

let suite =
  [
    test "sc identity: correct counter" (sc_identity Conc.Counters.correct counter_test_matrix);
    test "sc identity: segment queue"
      (sc_identity Conc.Segment_queue.adapter
         (Test_matrix.make [ [ inv_int "Enqueue" 200 ]; [ inv "TryDequeue"; inv "IsEmpty" ] ]));
    test "sc identity: fence-free dekker (the bug is invisible to sc)"
      (sc_identity fence_free dekker_test);
    qcheck_sc_identity;
    test "tso finds the fence bug sc cannot" (fun () ->
        let r_sc, _ = run_with ~memory:Memory_model.Sc fence_free dekker_test in
        Alcotest.(check bool) "sc passes" true (Check.passed r_sc);
        let r_tso, _ = run_with ~memory:Memory_model.Tso fence_free dekker_test in
        Alcotest.(check bool) "tso fails" true (Check.failed r_tso));
    test "pso finds the fence bug too" (fun () ->
        let r, _ = run_with ~memory:Memory_model.Pso fence_free dekker_test in
        Alcotest.(check bool) "pso fails" true (Check.failed r));
    test "the fences restore correctness under tso and pso" (fun () ->
        (* exhausting the fenced protocol at the default preemption bound
           takes ~20 s under tso (every spin iteration is a choice point);
           bounds 0 and 1 with por keep each run to seconds while
           preserving the contrast — the fence-free variant fails at both
           (asserted below). Each run keeps the unreduced explorer's
           distinct histories and fingerprint, in ~10.6k (pb=0) and
           ~113k (pb=1) executions since thread steps sleep across the
           flushes they commute with. *)
        let flushes m = Metrics.get m "explore.phase2.flushes" in
        (* The litmus matrix at pb=1 with --por, as bench/memory_bench.ml
           runs it: the fenced variant passes under sc too, and its weak
           runs below take at most 25x the sc executions (17.5x when this
           was written); the fence-free variant passes under sc and fails
           under tso and pso; every weak run flushes. *)
        let r, m = run_with ~por:true ~pb:1 ~memory:Memory_model.Sc fenced dekker_test in
        if not (Check.passed r) then Alcotest.failf "sc pb=1: %s" (Report.summary r);
        let sc = phase2_executions m in
        List.iter
          (fun (pb, histories, fp, max_executions) ->
            List.iter
              (fun memory ->
                let r, m = run_with ~por:true ~pb ~memory fenced dekker_test in
                let what = Fmt.str "%s pb=%d" (Memory_model.to_string memory) pb in
                if not (Check.passed r) then Alcotest.failf "%s: %s" what (Report.summary r);
                Alcotest.(check int) (what ^ " distinct histories") histories (distinct m);
                Alcotest.(check int) (what ^ " fingerprint") fp (fingerprint m);
                if phase2_executions m > max_executions then
                  Alcotest.failf "%s: %d executions, expected at most %d" what
                    (phase2_executions m) max_executions;
                if pb = 1 && phase2_executions m > 25 * sc then
                  Alcotest.failf "%s: %d executions, over 25x the %d under sc" what
                    (phase2_executions m) sc;
                if flushes m = 0 then Alcotest.failf "%s: no flushes" what)
              weak_models)
          [ 0, 21, 10919306494, 15_000; 1, 23, 11896227140, 150_000 ];
        List.iter
          (fun memory ->
            let r, m = run_with ~por:true ~pb:1 ~memory fence_free dekker_test in
            let what = Fmt.str "fence-free %s pb=1" (Memory_model.to_string memory) in
            match memory with
            | Memory_model.Sc ->
              if not (Check.passed r) then Alcotest.failf "%s: %s" what (Report.summary r)
            | Memory_model.Tso | Memory_model.Pso ->
              if not (Check.failed r) then Alcotest.failf "%s: %s" what (Report.summary r);
              if flushes m = 0 then Alcotest.failf "%s: no flushes" what)
          [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ]);
    test "fence-free litmus: --por fails within 15 executions" (fun () ->
        (* Pins the thread-first DFS order: trying flushes first, so that
           the flushes sleep instead, finds no violation under tso at pb=1
           within minutes. *)
        List.iter
          (fun memory ->
            List.iter
              (fun pb ->
                let r, m = run_with ~por:true ~pb ~memory fence_free dekker_test in
                let what = Fmt.str "%s pb=%d" (Memory_model.to_string memory) pb in
                if not (Check.failed r) then Alcotest.failf "%s: %s" what (Report.summary r);
                if phase2_executions m > 15 then
                  Alcotest.failf "%s: failed after %d executions, expected at most 15" what
                    (phase2_executions m))
              [ 0; 1 ])
          weak_models);
    qcheck_weak_por_equivalence;
    test "weak runs count their flushes" (fun () ->
        let _, m =
          run_with ~memory:Memory_model.Tso peek_forwards_adapter
            (Test_matrix.make [ [ inv "SetAndWait" ] ])
        in
        Alcotest.(check bool) "flushes > 0" true (Metrics.get m "explore.phase2.flushes" > 0));
    test "tso verdict and histories are -j invariant" (fun () ->
        let run phase2_domains =
          let r, _ = run_with ?phase2_domains ~memory:Memory_model.Tso fence_free dekker_test in
          Report.summary r
        in
        let mono = run None in
        Alcotest.(check string) "-j 1 = monolithic" mono (run (Some 1));
        Alcotest.(check string) "-j 4 = monolithic" mono (run (Some 4)));
    test "tso monitor warning cross-validates against real tso exploration" (fun () ->
        (* the monitor flags a store-load window on the fence-free variant,
           and the flagged behaviour is genuinely weak: the same test fails
           under --memory tso. The fenced variant is clean both ways. *)
        let flagged = Tso.run ~adapter:fence_free ~test:dekker_test () in
        Alcotest.(check bool) "monitor flags fence-free" true (List.length flagged > 0);
        let r, _ = run_with ~memory:Memory_model.Tso fence_free dekker_test in
        Alcotest.(check bool) "flagged => fails under tso" true (Check.failed r);
        let clean = Tso.run ~adapter:fenced ~test:dekker_test () in
        Alcotest.(check int) "monitor passes fenced" 0 (List.length clean)
        (* the pass direction (fenced survives --memory tso) is asserted by
           "the fences restore correctness" above; not re-run here. *));
    test "peek forwards from the blocked thread's own buffer" (fun () ->
        List.iter
          (fun memory ->
            let r, _ =
              run_with ~memory peek_forwards_adapter
                (Test_matrix.make [ [ inv "SetAndWait" ]; [ inv "SetAndWait" ] ])
            in
            if not (Check.passed r) then
              Alcotest.failf "peek forwarding under %s: %s" (Memory_model.to_string memory)
                (Report.summary r))
          [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ]);
    test "memory model strings round-trip" (fun () ->
        List.iter
          (fun m ->
            match Memory_model.of_string (Memory_model.to_string m) with
            | Some m' when m' = m -> ()
            | _ -> Alcotest.failf "round-trip failed for %s" (Memory_model.to_string m))
          [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ];
        Alcotest.(check bool) "unknown rejected" true (Memory_model.of_string "weak" = None));
  ]

let tests = suite
