(* Frontier splitting (intra-check parallelism) and the cancelled-run
   verdict.

   The load-bearing property: for any program and any depth, the frontier
   partitions of Explore.split, explored in frontier order by
   Explore.explore_from, reproduce the sequential exploration exactly —
   same execution count, same executions in the same canonical order. On
   top of that sit Check's guarantees: `phase2_domains = Some j` produces
   byte-identical reports and metrics for every j, and a cancelled run
   reports Cancelled, never a pass. *)

open Helpers
module Explore = Lineup_scheduler.Explore

let explore_all config ~setup ~on_execution = Explore.explore config ~setup ~on_execution ()

module Var = Lineup_runtime.Shared_var
module Metrics = Lineup_observe.Metrics
module Conc = Lineup_conc
open Lineup

let unbounded = { Explore.default_config with preemption_bound = None }

(* k threads, each performing n accesses to a shared variable. *)
let accesses_program ~threads ~accesses () =
  let v = Var.make 0 in
  Array.init threads (fun _ () ->
      for _ = 1 to accesses do
        ignore (Var.read v)
      done)

(* A fingerprint of one execution, strong enough to detect a changed
   schedule: outcome kind plus all the deterministic counters. *)
let fingerprint (o : Explore.exec_outcome) =
  let kind =
    match o.Explore.exec_end with
    | Explore.All_finished -> 0
    | Explore.Deadlock _ -> 1
    | Explore.Serial_stuck _ -> 2
    | Explore.Diverged -> 3
  in
  kind, o.Explore.steps, o.Explore.preemptions, o.Explore.choice_points

let sequential_fingerprints config setup =
  let fps = ref [] in
  let stats =
    explore_all config ~setup ~on_execution:(fun o ->
        fps := fingerprint o :: !fps;
        `Continue)
  in
  List.rev !fps, stats

let frontier_fingerprints config ~depth setup =
  let frontier =
    Explore.split config ~depth ~setup ~on_execution:(fun _ -> `Continue)
  in
  let fps =
    List.concat_map
      (fun prefix ->
        let fps = ref [] in
        let _ =
          Explore.explore_from config ~prefix ~setup
            ~on_execution:(fun o ->
              fps := fingerprint o :: !fps;
              `Continue)
            ()
        in
        List.rev !fps)
      frontier.Explore.prefixes
  in
  fps, frontier

let union_case ~config ~name setup =
  test name (fun () ->
      let seq, _ = sequential_fingerprints config setup in
      List.iter
        (fun depth ->
          let par, frontier = frontier_fingerprints config ~depth setup in
          Alcotest.(check int)
            (Fmt.str "depth %d: one warm-up execution per partition" depth)
            (List.length frontier.Explore.prefixes)
            frontier.Explore.warmup.Explore.executions;
          Alcotest.(check bool)
            (Fmt.str "depth %d: partition union == sequential schedule set" depth)
            true (seq = par))
        [ 1; 2; 3; 4; 8 ])

(* ---- harness level: partitioned histories == sequential histories ---- *)

let harness_histories config ~adapter ~test =
  let acc = ref [] in
  let _ =
    Harness.run_phase config ~adapter ~test ~on_history:(fun r ->
        acc := (History.events r.history, History.is_stuck r.history) :: !acc;
        `Continue)
  in
  List.rev !acc

let harness_frontier_histories config ~depth ~adapter ~test =
  let frontier =
    Harness.split_phase config ~depth ~adapter ~test ~on_history:(fun _ -> `Continue)
  in
  List.concat_map
    (fun prefix ->
      let acc = ref [] in
      let _ =
        Harness.run_phase_from config ~prefix ~adapter ~test ~on_history:(fun r ->
            acc := (History.events r.history, History.is_stuck r.history) :: !acc;
            `Continue)
      in
      List.rev !acc)
    frontier.Explore.prefixes

let history_union_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"random tests: frontier histories == sequential histories (order included)"
       ~count:25
       (QCheck.make
          (QCheck.Gen.map
             (fun seed ->
               let rng = Random.State.make [| seed; 7 |] in
               Test_matrix.random ~rng
                 ~invocations:Conc.Concurrent_queue.correct.Adapter.universe ~rows:2 ~cols:2 ())
             QCheck.Gen.small_signed_int))
       (fun test ->
         let adapter = Conc.Concurrent_queue.correct in
         let config = Explore.default_config in
         let seq = harness_histories config ~adapter ~test in
         List.for_all
           (fun depth -> harness_frontier_histories config ~depth ~adapter ~test = seq)
           [ 2; 4 ]))

(* ---- replay vs first visit ---- *)

(* A depth-[max_int] warm-up realizes every full decision trace, and each
   of its executions after the first replays the previous one's prefix.
   Running each full trace again as a frozen partition prefix is a first
   visit of every decision on it. The two runs must agree on everything the
   execution observes: the outcome's fields, the history and the access
   log, which includes every access a wake predicate would log. *)
let replay_matches_first_visit ~name ~config ~adapter ~test:t =
  test ("replay vs first visit: " ^ name) (fun () ->
      let module Exec_ctx = Lineup_runtime.Exec_ctx in
      let observe acc (r : Harness.run_result) =
        let o = r.Harness.outcome in
        let outcome =
          ( o.Explore.exec_end,
            (o.Explore.steps, o.Explore.preemptions, o.Explore.yields, o.Explore.flushes),
            o.Explore.choice_points,
            List.map (fun (tid, e) -> tid, Printexc.to_string e) o.Explore.errors,
            o.Explore.por_pruned )
        in
        acc := (outcome, r.Harness.history, r.Harness.log) :: !acc;
        `Continue
      in
      Exec_ctx.with_logging true (fun () ->
          let replayed = ref [] in
          let frontier =
            Harness.split_phase config ~depth:max_int ~adapter ~test:t
              ~on_history:(observe replayed)
          in
          let replayed = List.rev !replayed in
          Alcotest.(check int) "one trace per execution" (List.length replayed)
            (List.length frontier.Explore.prefixes);
          List.iteri
            (fun i (prefix, (outcome, history, log)) ->
              let first = ref [] in
              let _ =
                Harness.run_phase_from config ~prefix ~adapter ~test:t ~on_history:(observe first)
              in
              match !first with
              | [ (outcome', history', log') ] ->
                if outcome <> outcome' then Alcotest.failf "execution %d: outcomes differ" i;
                if not (History.equal history history') then
                  Alcotest.failf "execution %d: histories differ" i;
                if log <> log' then Alcotest.failf "execution %d: access logs differ" i
              | l ->
                Alcotest.failf "execution %d: %d executions on its full trace" i (List.length l))
            (List.combine frontier.Explore.prefixes replayed)))

let replay_cases =
  let module Memory_model = Lineup_runtime.Memory_model in
  let dekker = Test_matrix.make [ [ inv "Inc" ]; [ inv "Get" ] ] in
  let weak memory = { Explore.default_config with preemption_bound = Some 1; memory } in
  let enq_deq =
    [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv_int "Enqueue" 2; inv "TryDequeue" ] ]
  in
  [
    replay_matches_first_visit ~name:"Fig. 1 queue (value choices)" ~config:Explore.default_config
      ~adapter:Conc.Concurrent_queue.pre
      ~test:
        (Test_matrix.make ~init:[ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]
           [ [ inv "TryDequeue" ]; [ inv "TryDequeue" ] ]);
    replay_matches_first_visit ~name:"ManualResetEvent (wake predicates)"
      ~config:Explore.default_config ~adapter:Conc.Manual_reset_event.correct
      ~test:(Test_matrix.make [ [ inv "Wait"; inv "Reset" ]; [ inv "Set"; inv "Wait" ] ]);
    replay_matches_first_visit ~name:"SemaphoreSlim (wake predicates)"
      ~config:Explore.default_config ~adapter:Conc.Semaphore_slim.correct
      ~test:(Test_matrix.make [ [ inv "Wait"; inv "Release" ]; [ inv "Release"; inv "Wait" ] ]);
    replay_matches_first_visit ~name:"MichaelScottQueue (yields)" ~config:Explore.default_config
      ~adapter:Conc.Michael_scott_queue.adapter
      ~test:(Test_matrix.make enq_deq);
    replay_matches_first_visit ~name:"fenced Dekker under tso (flushes)"
      ~config:(weak Memory_model.Tso) ~adapter:Conc.Dekker.fenced ~test:dekker;
    replay_matches_first_visit ~name:"fenced Dekker under pso (flushes)"
      ~config:(weak Memory_model.Pso) ~adapter:Conc.Dekker.fenced ~test:dekker;
    replay_matches_first_visit ~name:"serial mode" ~config:Explore.serial_config
      ~adapter:Conc.Concurrent_queue.correct
      ~test:(Test_matrix.make enq_deq);
  ]

(* ---- partition transport: serialize . deserialize is the identity on
   exploration results, not just on the prefix value ---- *)

let roundtrip_prefix prefix =
  match Explore.prefix_of_string (Explore.prefix_to_string prefix) with
  | Ok p -> p
  | Error msg -> Alcotest.failf "prefix round-trip rejected its own encoding: %s" msg

let partition_histories config ~prefix ~adapter ~test =
  let acc = ref [] in
  let _ =
    Harness.run_phase_from config ~prefix ~adapter ~test ~on_history:(fun r ->
        acc := (History.events r.history, History.is_stuck r.history) :: !acc;
        `Continue)
  in
  List.rev !acc

let prefix_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         "random tests: deserialized frontier partitions explore byte-identical history \
          sequences"
       ~count:20
       (QCheck.make
          (QCheck.Gen.map
             (fun seed ->
               let rng = Random.State.make [| seed; 23 |] in
               Test_matrix.random ~rng
                 ~invocations:Conc.Concurrent_queue.correct.Adapter.universe ~rows:2 ~cols:2 ())
             QCheck.Gen.small_signed_int))
       (fun test ->
         let adapter = Conc.Concurrent_queue.correct in
         let config = Explore.default_config in
         let frontier =
           Harness.split_phase config ~depth:3 ~adapter ~test ~on_history:(fun _ -> `Continue)
         in
         List.for_all
           (fun prefix ->
             let revived = roundtrip_prefix prefix in
             revived = prefix
             && partition_histories config ~prefix:revived ~adapter ~test
                = partition_histories config ~prefix ~adapter ~test)
           frontier.Explore.prefixes))

(* ---- Check-level determinism and the Cancelled verdict ---- *)

let stable_result ~adapter ~test r m =
  Report.check_result_to_string ~adapter ~test r ^ "\n" ^ Metrics.to_json m

let check_with_domains ~adapter ~test ?cancelled domains =
  let config = { Check.default_config with phase2_domains = domains } in
  let m = Metrics.create () in
  let r = Check.run ~config ?cancelled ~metrics:m adapter test in
  r, stable_result ~adapter ~test r m

(* Fires after [n] polls; deterministic, so both paths can be compared. *)
let cancel_after n =
  let polls = ref 0 in
  fun () ->
    incr polls;
    !polls > n

let suite =
  [
    union_case ~config:unbounded ~name:"frontier union: 2 threads x 3 accesses, unbounded"
      (accesses_program ~threads:2 ~accesses:3);
    union_case ~config:unbounded ~name:"frontier union: 3 threads x 2 accesses, unbounded"
      (accesses_program ~threads:3 ~accesses:2);
    union_case ~config:Explore.default_config
      ~name:"frontier union survives preemption bounding (pb=2)"
      (accesses_program ~threads:3 ~accesses:2);
    test "split at depth 0 is one empty prefix, with no warm-up execution" (fun () ->
        let ran = ref 0 in
        let setup () =
          incr ran;
          accesses_program ~threads:2 ~accesses:1 ()
        in
        let f =
          Explore.split unbounded ~depth:0 ~setup ~on_execution:(fun _ ->
              incr ran;
              `Continue)
        in
        Alcotest.(check int) "one partition" 1 (List.length f.Explore.prefixes);
        Alcotest.(check bool) "its prefix is empty" true (f.Explore.prefixes = [ [] ]);
        Alcotest.(check bool) "empty warm-up stats" true (f.Explore.warmup = Explore.empty_stats);
        Alcotest.(check int) "nothing executed" 0 !ran);
    test "split rejects a negative depth" (fun () ->
        Alcotest.check_raises "invalid depth"
          (Invalid_argument "Explore.split: depth must be >= 0") (fun () ->
            ignore
              (Explore.split unbounded ~depth:(-1)
                 ~setup:(accesses_program ~threads:2 ~accesses:1)
                 ~on_execution:(fun _ -> `Continue))));
    history_union_prop;
    prefix_roundtrip_prop;
    test "prefix_of_string rejects malformed encodings" (fun () ->
        List.iter
          (fun s ->
            match Explore.prefix_of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted malformed prefix %S" s)
          [ "x1"; "s"; "s-1"; "v1"; "v2/2"; "v1/"; "s1;;s2"; "s1,s2" ]);
    (let open QCheck.Gen in
     let token =
       oneof
         [
           map (Printf.sprintf "s%d") (int_bound 9);
           map2 (Printf.sprintf "v%d/%d") (int_bound 3) (int_range 1 4);
         ]
     in
     let encoding = map (String.concat ";") (list_size (int_bound 6) token) in
     let alphabet = [ 's'; 'v'; '/'; ';'; '-'; '0'; '9'; '+'; '_' ] in
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make ~name:"prefix_of_string is total, and what it accepts round-trips"
          ~count:2000
          (QCheck.make ~print:(Printf.sprintf "%S")
             (oneof
                [
                  encoding >>= mutations_gen ~alphabet;
                  map (fun n -> "s" ^ String.make n '9') (int_range 18 22);
                ]))
          (fun s ->
            match Explore.prefix_of_string s with
            | Ok p -> Explore.prefix_of_string (Explore.prefix_to_string p) = Ok p
            | Error _ -> true)));
    test "check -j: verdict, report and metrics identical for j=1 and j=4" (fun () ->
        let adapter = Conc.Manual_reset_event.lost_signal in
        let test = Test_matrix.make [ [ inv "Wait" ]; [ inv "Set" ] ] in
        let r1, s1 = check_with_domains ~adapter ~test (Some 1) in
        let r4, s4 = check_with_domains ~adapter ~test (Some 4) in
        Alcotest.(check bool) "both fail" true (Check.failed r1 && Check.failed r4);
        Alcotest.(check string) "byte-identical" s1 s4);
    test "check -j on a correct class: identical for j=1 and j=4" (fun () ->
        let adapter = Conc.Counters.correct in
        let test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ] in
        let r1, s1 = check_with_domains ~adapter ~test (Some 1) in
        let r4, s4 = check_with_domains ~adapter ~test (Some 4) in
        Alcotest.(check bool) "both pass" true (Check.passed r1 && Check.passed r4);
        Alcotest.(check string) "byte-identical" s1 s4);
    test "cancelled run reports Cancelled, not a pass (monolithic)" (fun () ->
        let adapter = Conc.Counters.correct in
        let test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ] in
        let r = Check.run ~cancelled:(cancel_after 5) adapter test in
        Alcotest.(check bool) "cancelled" true (Check.cancelled r);
        Alcotest.(check bool) "not passed" false (Check.passed r);
        Alcotest.(check bool) "not failed" false (Check.failed r));
    test "cancelled run reports Cancelled, not a pass (frontier)" (fun () ->
        let adapter = Conc.Counters.correct in
        let test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ] in
        let config = { Check.default_config with phase2_domains = Some 2 } in
        let r = Check.run ~config ~cancelled:(cancel_after 5) adapter test in
        Alcotest.(check bool) "cancelled" true (Check.cancelled r);
        Alcotest.(check bool) "not passed" false (Check.passed r));
    test "cancellation during phase 1 cancels synthesize" (fun () ->
        let adapter = Conc.Counters.correct in
        let test = Test_matrix.make [ [ inv "Inc" ]; [ inv "Inc" ] ] in
        match Check.synthesize ~cancelled:(fun () -> true) adapter test with
        | Error (Check.Cancelled, _) -> ()
        | Error ((Check.Pass | Check.Fail _), _) -> Alcotest.fail "expected Cancelled"
        | Ok _ -> Alcotest.fail "expected cancellation");
    test "a violation found before cancellation wins over Cancelled" (fun () ->
        let adapter = Conc.Manual_reset_event.lost_signal in
        let test = Test_matrix.make [ [ inv "Wait" ]; [ inv "Set" ] ] in
        (* a token that never fires: baseline failure, for comparison with
           one that fires far past the violating execution *)
        let r = Check.run ~cancelled:(cancel_after 1_000_000) adapter test in
        Alcotest.(check bool) "failed" true (Check.failed r));
  ]
  @ replay_cases

let tests = suite
