(* Bechamel micro-benchmarks: one Test.make per table/figure driver, timing
   the hot paths that regenerate them — phase 1 (serial enumeration), the
   two-phase check, witness search, and the direct WGL checker used as the
   oracle — two of the explorer's own executions, reported per step,
   phase 1 of seven classes, reported per serial execution, and the
   monitor's parse of one rendered call line and one return line. *)

open Bench_common
module Conc = Lineup_conc
module Specs = Lineup_spec.Specs
module Lin_check = Lineup_spec.Lin_check
module Explore = Lineup_scheduler.Explore
module Var = Lineup_runtime.Shared_var
open Lineup
open Bechamel
open Toolkit

let fig1_test =
  Test_matrix.make
    [ [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]; [ inv "TryDequeue"; inv "TryDequeue" ] ]

let small_counter_test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

(* A fixed concurrent history + observation set for witness-search timing. *)
let witness_fixture =
  let r = Check.run Conc.Counters.correct small_counter_test in
  let obs = r.Check.observation in
  let h =
    let open Lineup_history in
    History.make
      [
        Event.call ~tid:0 ~op_index:0 (inv "Inc");
        Event.call ~tid:1 ~op_index:0 (inv "Inc");
        Event.return ~tid:0 ~op_index:0 Lineup_value.Value.Unit;
        Event.return ~tid:1 ~op_index:0 Lineup_value.Value.Unit;
        Event.call ~tid:0 ~op_index:1 (inv "Get");
        Event.return ~tid:0 ~op_index:1 (Lineup_value.Value.Int 2);
      ]
  in
  obs, h

let phase1_only_config =
  {
    Check.default_config with
    Check.phase2 = { Explore.serial_config with Explore.max_executions = Some 1 };
  }

(* The explorer's cost per step with nothing else in it: one execution of
   two threads that each read a shared variable 400 times, at preemption
   bound 1 (800 steps). *)
let bare_config = { Explore.default_config with preemption_bound = Some 1; max_executions = Some 1 }

let bare_setup () =
  let v = Var.make 0 in
  Array.init 2 (fun _ () ->
      for _ = 1 to 400 do
        ignore (Var.read v)
      done)

let bare_step () =
  Explore.explore bare_config ~setup:bare_setup ~on_execution:(fun _ -> `Continue) ()

(* One execution of the fenced Dekker litmus under TSO with --por at
   preemption bound 0: spin loops, fences and store-buffer flushes. *)
let dekker_tso_config =
  {
    Explore.default_config with
    preemption_bound = Some 0;
    por = true;
    memory = Lineup_runtime.Memory_model.Tso;
    max_executions = Some 1;
  }

let dekker_test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

let dekker_tso () =
  Harness.run_phase dekker_tso_config ~adapter:Conc.Dekker.fenced ~test:dekker_test
    ~on_history:(fun _ -> `Continue)

(* Phase 1 against the operations it runs: for each of seven classes, the
   3x3 test [u0;u1;u2] | [u3;u4;u0] | [u1;u2;u3] over its universe, timed as
   a whole synthesis, as the harness's serial exploration alone (no
   observation set), and as [create] plus the nine operations run inline in
   column order (an operation that would block ends that run). The inline
   case runs once per serial execution of the test, so all three read per
   serial execution. *)
let phase1_classes =
  [
    Conc.Concurrent_stack.correct;
    Conc.Concurrent_queue.correct;
    Conc.Concurrent_dictionary.adapter;
    Conc.Lazy_list_set.correct;
    Conc.Concurrent_bag.adapter;
    Conc.Counters.correct;
    Conc.Semaphore_slim.correct;
  ]

let phase1_test (adapter : Adapter.t) =
  let universe = Array.of_list adapter.universe in
  (* Counter's universe has four invocations: u4 is u0 again *)
  let u i = universe.(i mod Array.length universe) in
  Test_matrix.make [ [ u 0; u 1; u 2 ]; [ u 3; u 4; u 0 ]; [ u 1; u 2; u 3 ] ]

let serial_phase adapter =
  Harness.run_phase Explore.serial_config ~adapter ~test:(phase1_test adapter)
    ~on_history:(fun _ -> `Continue)

let inline_ops (adapter : Adapter.t) ~times =
  let ops = List.concat (Array.to_list (phase1_test adapter).Test_matrix.columns) in
  for _ = 1 to times do
    try
      Lineup_runtime.Rt.run_inline (fun () ->
          let inst = adapter.create () in
          List.iter (fun inv -> ignore (inst.invoke inv)) ops)
    with Failure _ -> ()
  done

let phase1_case (adapter : Adapter.t) what = Fmt.str "phase1 %s: %s" adapter.name what
let phase1_parts = [ "Check.synthesize"; "Harness.run_phase"; "create + 9 ops inline" ]

(* [classes]: each class with its test's number of serial executions. *)
let phase1_cases classes =
  List.concat_map
    (fun ((adapter : Adapter.t), executions) ->
      List.map2
        (fun what body -> Test.make ~name:(phase1_case adapter what) (Staged.stage body))
        phase1_parts
        [
          (fun () -> ignore (Check.synthesize adapter (phase1_test adapter)));
          (fun () -> ignore (serial_phase adapter));
          (fun () -> inline_ops adapter ~times:executions);
        ])
    classes

(* The unit some cases are also reported per, and how many of them one run
   holds: steps for the explorer cases, serial executions for phase 1. *)
let per_unit classes =
  [
    "bare-step 2x400 reads, pb 1 (explorer)", ("step", (bare_step ()).Explore.total_steps);
    "dekker-fenced-tso execution (explorer)", ("step", (dekker_tso ()).Explore.total_steps);
  ]
  @ List.concat_map
      (fun (adapter, executions) ->
        List.map
          (fun what -> phase1_case adapter what, ("serial execution", executions))
          phase1_parts)
      classes

(* The two lines of a queue operation as [lineup check --trace] writes
   them, which the monitor's parse reads on its fast path. *)
let call_line =
  Lineup_history.(Trace_event.render ~t:0.000123 (Event.call ~tid:0 ~op_index:1 (inv_int "Enqueue" 200)))

let ret_line =
  Lineup_history.(Trace_event.render ~t:0.000150 (Event.return ~tid:1 ~op_index:1 (Value.int 200)))

let tests =
  [
    Test.make ~name:"bare-step 2x400 reads, pb 1 (explorer)"
      (Staged.stage (fun () -> ignore (bare_step ())));
    Test.make ~name:"dekker-fenced-tso execution (explorer)"
      (Staged.stage (fun () -> ignore (dekker_tso ())));
    (* Table 2 driver: one full two-phase check of a small test *)
    Test.make ~name:"check-2x2-counter (T2 row)" (Staged.stage (fun () ->
        ignore (Check.run Conc.Counters.correct small_counter_test)));
    (* Figure 1 driver: two-phase check that finds the queue violation *)
    Test.make ~name:"check-fig1-queue (F1)" (Staged.stage (fun () ->
        ignore (Check.run Conc.Concurrent_queue.pre fig1_test)));
    (* Figure 7 / §5.4 driver: phase 1 serial enumeration of the 2x2 test *)
    Test.make ~name:"phase1-2x2-queue (F7, AB3)" (Staged.stage (fun () ->
        ignore (Check.run ~config:phase1_only_config Conc.Concurrent_queue.correct fig1_test)));
    (* Phase-2 inner loop: witness search for one history *)
    Test.make ~name:"witness-search (T2 inner loop)" (Staged.stage (fun () ->
        let obs, h = witness_fixture in
        ignore (Observation.witness obs h)));
    (* The oracle: direct Wing-Gong-Lowe check of the same history *)
    Test.make ~name:"wgl-direct-check (oracle)" (Staged.stage (fun () ->
        let _, h = witness_fixture in
        ignore (Lin_check.decide Specs.counter h)));
    Test.make ~name:"parse a rendered call line (monitor)"
      (Staged.stage (fun () -> ignore (Lineup_history.Trace_event.parse call_line)));
    Test.make ~name:"parse a rendered return line (monitor)"
      (Staged.stage (fun () -> ignore (Lineup_history.Trace_event.parse ret_line)));
    (* Figure 9 driver: generalized (stuck-history) check *)
    Test.make ~name:"check-fig9-mre (F9)" (Staged.stage (fun () ->
        ignore
          (Check.run Conc.Manual_reset_event.lost_signal
             (Test_matrix.make [ [ inv "Wait" ]; [ inv "Set" ] ]))));
  ]

(* Bechamel's own [minor_allocated] reads [Gc.quick_stat], whose
   [minor_words] moves only at a minor collection on OCaml 5.1, so it reads
   0 for a run shorter than one. [Gc.minor_words ()] counts every word. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words = Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let run () =
  hr "Bechamel micro-benchmarks (per-table/figure drivers)";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let phase1 = List.map (fun a -> a, (serial_phase a).Explore.executions) phase1_classes in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"lineup" (tests @ phase1_cases phase1))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols minor_words raw in
  let per_run ols = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan in
  let per_unit = per_unit phase1 in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "%-60s %15s %12s %10s@." "benchmark" "time/run" "words/run" "r²";
  Fmt.pr "%s@." (String.make 100 '-');
  List.iter
    (fun (name, ols) ->
      let estimate = per_run ols in
      let minor = Option.fold ~none:Float.nan ~some:per_run (Hashtbl.find_opt words name) in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
      let time_str ns =
        if ns > 1e9 then Fmt.str "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Fmt.str "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Fmt.str "%.2f us" (ns /. 1e3)
        else Fmt.str "%.0f ns" ns
      in
      Fmt.pr "%-60s %15s %12.0f %10.4f@." name (time_str estimate) minor r2;
      List.iter
        (fun (case, (unit, n)) ->
          if name = "lineup/" ^ case then
            Fmt.pr "  per %s (%d): %.0f ns, %.1f minor words@." unit n
              (estimate /. float n)
              (minor /. float n))
        per_unit)
    rows
