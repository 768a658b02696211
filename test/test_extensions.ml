(* Tests for the features beyond the core algorithm: phase-1 synthesis and
   observation-file caching (§4.1), sequence-based test construction (§4.3),
   parallel RandomCheck (§4.3), iterative context bounding, and the two
   bonus subjects (ReaderWriterLockSlim, the lazy-list set). *)

open Helpers
module Conc = Lineup_conc
module Explore = Lineup_scheduler.Explore
module Rt = Lineup_runtime.Rt
module Var = Lineup_runtime.Shared_var
open Lineup

let with_temp_dir f =
  let dir = Filename.temp_file "lineup" "cache" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let counter_test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

(* the offset of the first [sub] in [s] *)
let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then invalid_arg "find_sub"
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

let suite =
  [
    test "synthesize returns the phase-1 observation set" (fun () ->
        match Check.synthesize Conc.Counters.correct counter_test with
        | Ok (obs, report) ->
          Alcotest.(check int) "histories" 3 (Observation.num_full obs);
          Alcotest.(check int) "report histories" 3 report.Check.histories
        | Error _ -> Alcotest.fail "expected phase-1 success");
    test "synthesize reports nondeterminism" (fun () ->
        let test = Test_matrix.make [ [ inv "Cancel"; inv "IsCancellationRequested" ] ] in
        match Check.synthesize Conc.Cancellation_token_source.adapter test with
        | Error (Check.Fail (Check.Nondeterministic _), _) -> ()
        | Error _ -> Alcotest.fail "wrong violation"
        | Ok _ -> Alcotest.fail "expected nondeterminism");
    test "run with a supplied observation skips phase 1" (fun () ->
        match Check.synthesize Conc.Counters.correct counter_test with
        | Error _ -> Alcotest.fail "synthesis failed"
        | Ok (obs, _) ->
          let r = Check.run ~observation:obs Conc.Counters.correct counter_test in
          Alcotest.(check bool) "passes" true (Check.passed r);
          Alcotest.(check int) "no phase-1 executions" 0
            r.Check.phase1.Check.stats.Explore.executions);
    test "a mismatched observation produces a violation (regression workflow)" (fun () ->
        (* spec synthesized from the correct counter, implementation is the
           buggy one: phase 2 must fail *)
        match Check.synthesize Conc.Counters.correct counter_test with
        | Error _ -> Alcotest.fail "synthesis failed"
        | Ok (obs, _) ->
          let r = Check.run ~observation:obs Conc.Counters.buggy_unlocked counter_test in
          Alcotest.(check bool) "fails" false (Check.passed r));
    test "obs_cache: second run hits the cache and agrees" (fun () ->
        with_temp_dir (fun dir ->
            let r1 = Obs_cache.check ~dir Conc.Counters.correct counter_test in
            let path = Obs_cache.cache_path ~dir Conc.Counters.correct counter_test in
            Alcotest.(check bool) "cache file written" true (Sys.file_exists path);
            (match Obs_cache.phase1 ~dir Conc.Counters.correct counter_test with
             | Ok (_, hit) -> Alcotest.(check bool) "hit" true hit
             | Error _ -> Alcotest.fail "unexpected phase-1 violation");
            let r2 = Obs_cache.check ~dir Conc.Counters.correct counter_test in
            Alcotest.(check bool) "same verdict" (Check.passed r1) (Check.passed r2);
            Alcotest.(check int) "same spec size" r1.Check.phase1.Check.histories
              r2.Check.phase1.Check.histories));
    test "obs_cache: different tests use different files" (fun () ->
        with_temp_dir (fun dir ->
            let t2 = Test_matrix.make [ [ inv "Get" ] ] in
            let p1 = Obs_cache.cache_path ~dir Conc.Counters.correct counter_test in
            let p2 = Obs_cache.cache_path ~dir Conc.Counters.correct t2 in
            Alcotest.(check bool) "distinct" false (String.equal p1 p2)));
    test "obs_cache: cached spec catches a regression" (fun () ->
        with_temp_dir (fun dir ->
            (* record the spec of the correct queue, then "upgrade" to the
               buggy one under the same adapter name: the cached spec is
               keyed by name+test, so the buggy implementation is checked
               against the recorded correct behavior *)
            let test =
              Test_matrix.make
                [
                  [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ];
                  [ inv "TryDequeue"; inv "TryDequeue" ];
                ]
            in
            ignore (Obs_cache.check ~dir Conc.Concurrent_queue.correct test);
            let obs =
              match Obs_cache.phase1 ~dir Conc.Concurrent_queue.correct test with
              | Ok (obs, true) -> obs
              | _ -> Alcotest.fail "expected a cache hit"
            in
            let r = Check.run ~observation:obs Conc.Concurrent_queue.pre test in
            Alcotest.(check bool) "regression caught" false (Check.passed r)));
    test "obs_cache: a different phase-1 config misses (stale-key regression)" (fun () ->
        with_temp_dir (fun dir ->
            (* a phase-1 config with a tighter step budget can record a
               smaller observation set; reusing the default-config file for
               it would be a stale hit. Under the pre-fingerprint key scheme
               both configs mapped to the same file, so this test failed. *)
            let small_phase1 =
              {
                Check.default_config with
                Check.phase1 = { Explore.serial_config with Explore.max_steps = 123 };
              }
            in
            let p_default = Obs_cache.cache_path ~dir Conc.Counters.correct counter_test in
            let p_small =
              Obs_cache.cache_path ~config:small_phase1 ~dir Conc.Counters.correct counter_test
            in
            Alcotest.(check bool) "distinct cache files" false (String.equal p_default p_small);
            (match Obs_cache.phase1 ~dir Conc.Counters.correct counter_test with
             | Ok (_, hit) -> Alcotest.(check bool) "first run misses" false hit
             | Error _ -> Alcotest.fail "unexpected phase-1 violation");
            match Obs_cache.phase1 ~config:small_phase1 ~dir Conc.Counters.correct counter_test with
            | Ok (_, hit) -> Alcotest.(check bool) "other config misses" false hit
            | Error _ -> Alcotest.fail "unexpected phase-1 violation"));
    test "obs_cache: cache file names do not change" (fun () ->
        (* existing cache directories stay valid: the names below are what
           the key scheme of format version 4 computes *)
        let keyed =
          Test_matrix.make ~init:[ inv_int "Set" 2 ] ~final:[ inv "Get" ]
            [ [ inv "Inc"; inv "Get" ]; [ inv_int "Add" 5 ] ]
        in
        let bounded =
          {
            Check.default_config with
            Check.phase1 =
              {
                Explore.serial_config with
                Explore.preemption_bound = Some 1;
                max_steps = 123;
                max_executions = Some 50;
              };
          }
        in
        Alcotest.(check (list string)) "cache paths"
          [
            Filename.concat "d" "bd3ef577e9ff87c39e4b1c3cd2389495.xml";
            Filename.concat "d" "65b6cb6995d014113c2e5c3d07eaef12.xml";
          ]
          [
            Obs_cache.cache_path ~dir:"d" Conc.Counters.correct counter_test;
            Obs_cache.cache_path ~config:bounded ~dir:"d" Conc.Counters.correct keyed;
          ]);
    test "obs_cache: a file without the embedded stamp is evicted as stale" (fun () ->
        with_temp_dir (fun dir ->
            let m = Lineup_observe.Metrics.create () in
            (match Obs_cache.phase1 ~metrics:m ~dir Conc.Counters.correct counter_test with
             | Ok (obs, _) ->
               (* overwrite the cache file without the version/fingerprint
                  attributes, as a pre-versioned writer would have *)
               let path = Obs_cache.cache_path ~dir Conc.Counters.correct counter_test in
               Observation_file.save ~path obs
             | Error _ -> Alcotest.fail "unexpected phase-1 violation");
            (match Obs_cache.phase1 ~metrics:m ~dir Conc.Counters.correct counter_test with
             | Ok (_, hit) -> Alcotest.(check bool) "stamp mismatch misses" false hit
             | Error _ -> Alcotest.fail "unexpected phase-1 violation");
            Alcotest.(check int) "stale eviction counted" 1
              (Lineup_observe.Metrics.get m "obs_cache.stale");
            match Obs_cache.phase1 ~metrics:m ~dir Conc.Counters.correct counter_test with
            | Ok (_, hit) -> Alcotest.(check bool) "rewritten file hits" true hit
            | Error _ -> Alcotest.fail "unexpected phase-1 violation"));
    test "obs_cache: a miss evicts the files of earlier format versions" (fun () ->
        with_temp_dir (fun dir ->
            let versions = [ 2; 3 ] in
            let old v = Obs_cache.cache_path ~version:v ~dir Conc.Counters.correct counter_test in
            (* the name a version-3 writer gave this key *)
            Alcotest.(check bool) "version-3 name" true
              (String.starts_with ~prefix:"003deb47" (Filename.basename (old 3)));
            List.iter
              (fun v ->
                Out_channel.with_open_bin (old v) (fun oc -> output_string oc "<observations/>"))
              versions;
            let m = Lineup_observe.Metrics.create () in
            (match Obs_cache.phase1 ~metrics:m ~dir Conc.Counters.correct counter_test with
             | Ok (_, hit) -> Alcotest.(check bool) "miss" false hit
             | Error _ -> Alcotest.fail "unexpected phase-1 violation");
            Alcotest.(check (list bool))
              "earlier versions' files evicted" [ false; false ]
              (List.map (fun v -> Sys.file_exists (old v)) versions);
            Alcotest.(check int) "stale evictions counted" 2
              (Lineup_observe.Metrics.get m "obs_cache.stale");
            Alcotest.(check bool) "current file written" true
              (Sys.file_exists (Obs_cache.cache_path ~dir Conc.Counters.correct counter_test))));
    test "obs_cache: a truncated file is evicted as stale and recomputed" (fun () ->
        with_temp_dir (fun dir ->
            let m = Lineup_observe.Metrics.create () in
            ignore (Obs_cache.phase1 ~metrics:m ~dir Conc.Counters.correct counter_test);
            let path = Obs_cache.cache_path ~dir Conc.Counters.correct counter_test in
            let whole = In_channel.with_open_bin path In_channel.input_all in
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (String.sub whole 0 (String.length whole / 2)));
            (match Obs_cache.phase1 ~metrics:m ~dir Conc.Counters.correct counter_test with
             | Ok (_, hit) -> Alcotest.(check bool) "truncated file misses" false hit
             | Error _ -> Alcotest.fail "unexpected phase-1 violation");
            Alcotest.(check int) "stale eviction counted" 1
              (Lineup_observe.Metrics.get m "obs_cache.stale");
            match Obs_cache.phase1 ~metrics:m ~dir Conc.Counters.correct counter_test with
            | Ok (_, hit) -> Alcotest.(check bool) "rewritten file hits" true hit
            | Error _ -> Alcotest.fail "unexpected phase-1 violation"));
    test "obs_cache: an edited result is evicted, not a false alarm" (fun () ->
        (* the file still parses after the edit; before the digest, the
           generic search trusted it and failed the correct queue *)
        with_temp_dir (fun dir ->
            let adapter = Conc.Concurrent_queue.correct in
            let test =
              Test_matrix.make
                [
                  [ inv_int "Enqueue" 200; inv "TryDequeue" ];
                  [ inv_int "Enqueue" 400; inv "TryDequeue" ];
                ]
            in
            let path = Obs_cache.cache_path ~dir adapter test in
            let edit f =
              let s = In_channel.with_open_bin path In_channel.input_all in
              Out_channel.with_open_bin path (fun oc -> output_string oc (f s))
            in
            (* [s] with [by] in place of its bytes [i] .. [j - 1] *)
            let splice s i j by = String.sub s 0 i ^ by ^ String.sub s j (String.length s - j) in
            List.iter
              (fun (what, f) ->
                ignore (Obs_cache.check ~dir adapter test);
                edit f;
                let m = Lineup_observe.Metrics.create () in
                let r = Obs_cache.check ~metrics:m ~dir adapter test in
                Alcotest.(check string) (what ^ ": summary")
                  "PASS (6 serial histories, 6192 concurrent executions)" (Report.summary r);
                Alcotest.(check int) (what ^ ": evicted") 1
                  (Lineup_observe.Metrics.get m "obs_cache.stale"))
              [
                ( "an edited result",
                  fun s ->
                    let was = {|result="200"|} in
                    let i = find_sub s was in
                    splice s i (i + String.length was) {|result="201"|} );
                ( "a dropped history",
                  fun s ->
                    let i = find_sub s "<history>" in
                    splice s i (String.index_from s i '\n' + 1) "" );
              ]));
    QCheck_alcotest.to_alcotest
      (let adapter = Conc.Concurrent_queue.correct in
       let test = Test_matrix.make [ [ inv_int "Enqueue" 200; inv "TryDequeue" ]; [ inv "TryDequeue" ] ] in
       let render r = Report.check_result_to_string ~adapter ~test r in
       let fresh = Check.run adapter test in
       (* a miss reports the uncached run; a hit, phase 2 over the file *)
       let whole, hit_reference =
         with_temp_dir (fun dir ->
             ignore (Obs_cache.check ~dir adapter test);
             let r = Obs_cache.check ~dir adapter test in
             let path = Obs_cache.cache_path ~dir adapter test in
             In_channel.with_open_bin path In_channel.input_all, render r)
       in
       QCheck.Test.make ~name:"obs_cache: a mutated cache file never changes the verdict or report"
         ~count:300
         (QCheck.make ~print:(Printf.sprintf "%S")
            (mutations_gen
               ~alphabet:[ '<'; '>'; '/'; '"'; '='; ' '; '\n'; '['; ']'; '#'; '0'; '1'; '2'; '4'; 'B' ]
               whole))
         (fun mutated ->
           with_temp_dir (fun dir ->
               let path = Obs_cache.cache_path ~dir adapter test in
               Out_channel.with_open_bin path (fun oc -> output_string oc mutated);
               let m = Lineup_observe.Metrics.create () in
               let r = Obs_cache.check ~metrics:m ~dir adapter test in
               let reference =
                 if Lineup_observe.Metrics.get m "obs_cache.hit" = 1 then hit_reference
                 else render fresh
               in
               Check.passed r = Check.passed fresh && String.equal (render r) reference)));
    test "obs_cache: concurrent writers create the cache dir race-free" (fun () ->
        (* a nested, not-yet-existing directory, populated by four domains
           at once: the old non-recursive Sys.mkdir raised ENOENT on the
           nesting and EEXIST on the race *)
        let base = Filename.temp_file "lineup" "mkdirp" in
        Sys.remove base;
        let dir = Filename.concat (Filename.concat base "a") "b" in
        let tests =
          [|
            Test_matrix.make [ [ inv "Inc" ] ];
            Test_matrix.make [ [ inv "Get" ] ];
            Test_matrix.make [ [ inv "Inc"; inv "Get" ] ];
            Test_matrix.make [ [ inv "Inc" ]; [ inv "Get" ] ];
          |]
        in
        let domains =
          Array.map
            (fun test ->
              Domain.spawn (fun () -> Obs_cache.phase1 ~dir Conc.Counters.correct test))
            tests
        in
        Array.iter
          (fun d ->
            match Domain.join d with
            | Ok (_, hit) -> Alcotest.(check bool) "fresh dir misses" false hit
            | Error _ -> Alcotest.fail "unexpected phase-1 violation")
          domains;
        Alcotest.(check int) "all four files written" 4 (Array.length (Sys.readdir dir));
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir;
        Sys.rmdir (Filename.concat base "a");
        Sys.rmdir base);
    test "minimize also deletes from init and final" (fun () ->
        (* the counter bug needs only the concurrent part; a padded init and
           final must be stripped — the pre-fix minimizer only ever deleted
           from the columns, so the reduced test kept the padding *)
        let padded =
          Test_matrix.make ~init:[ inv "Inc" ] ~final:[ inv "Inc" ]
            [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]
        in
        let r = Minimize.reduce Conc.Counters.buggy_unlocked padded in
        Alcotest.(check bool) "still fails" false (Check.passed r.Minimize.check);
        Alcotest.(check int) "init stripped" 0 (List.length r.Minimize.test.Test_matrix.init);
        Alcotest.(check int) "final stripped" 0 (List.length r.Minimize.test.Test_matrix.final));
    test "random_seqs cells are whole sequences" (fun () ->
        let rng = Random.State.make [| 9 |] in
        let sequences = [ [ inv "A"; inv "B" ]; [ inv "C" ] ] in
        let m = Test_matrix.random_seqs ~rng ~sequences ~rows:2 ~cols:2 () in
        Alcotest.(check int) "cols" 2 (Test_matrix.num_threads m);
        (* each column concatenates two sequences: length 2..4, and every
           A is immediately followed by B *)
        Array.iter
          (fun col ->
            let names = List.map (fun (i : Lineup_history.Invocation.t) -> i.name) col in
            let rec ok = function
              | "A" :: "B" :: rest -> ok rest
              | "C" :: rest -> ok rest
              | [] -> true
              | _ -> false
            in
            Alcotest.(check bool) "well-formed column" true (ok names))
          m.Test_matrix.columns);
    test "random_seqs draws find the semaphore bug with release-heavy sequences" (fun () ->
        let report =
          Random_check.run ~stop_at_first:true ~seed:5 ~samples:20
            ~draw:(fun rng ->
              Test_matrix.random_seqs ~rng
                ~sequences:[ [ inv "Release" ]; [ inv "Release"; inv "CurrentCount" ] ]
                ~rows:1 ~cols:2 ())
            Conc.Semaphore_slim.pre
        in
        Alcotest.(check bool) "found" true (report.Random_check.failed > 0));
    (* the two bonus subjects *)
    test "rwlock: correct version passes reader/writer mix" (fun () ->
        let r =
          Check.run Conc.Rw_lock.correct
            (Test_matrix.make
               [ [ inv "EnterRead"; inv "ExitRead" ]; [ inv "EnterWrite"; inv "ExitWrite" ] ])
        in
        Alcotest.(check bool) "passes" true (Check.passed r));
    test "rwlock: writer blocks while a reader holds (stuck history justified)" (fun () ->
        let r =
          Check.run Conc.Rw_lock.correct
            (Test_matrix.make [ [ inv "EnterRead" ]; [ inv "EnterWrite" ] ])
        in
        Alcotest.(check bool) "passes" true (Check.passed r);
        Alcotest.(check bool) "has stuck serial histories" true
          (Observation.num_stuck r.Check.observation > 0));
    test "rwlock: racy reader count caught" (fun () ->
        let r =
          Check.run Conc.Rw_lock.pre
            (Test_matrix.make [ [ inv "EnterRead" ]; [ inv "EnterRead"; inv "CurrentReadCount" ] ])
        in
        match r.Check.verdict with
        | Check.Fail (Check.No_witness _) -> ()
        | _ -> Alcotest.fail "expected a wrong-value violation");
    test "rwlock: exits without holds fail sequentially" (fun () ->
        let seq invs =
          Lineup_runtime.Exec_ctx.reset ();
          Lineup_runtime.Exec_ctx.set_current_tid 0;
          Rt.run_inline (fun () ->
              let inst = Conc.Rw_lock.correct.Adapter.create () in
              List.map inst.Adapter.invoke invs)
        in
        Alcotest.(check (list value)) "exit fail"
          [ Lineup_value.Value.Fail; Lineup_value.Value.Fail ]
          (seq [ inv "ExitRead"; inv "ExitWrite" ]));
    test "lazy list: published algorithm passes an adversarial mix" (fun () ->
        let r =
          Check.run Conc.Lazy_list_set.correct
            (Test_matrix.make ~init:[ inv_int "Add" 10 ]
               [ [ inv_int "Remove" 10 ]; [ inv_int "Add" 15; inv_int "Contains" 15 ] ])
        in
        Alcotest.(check bool) "passes" true (Check.passed r));
    test "lazy list: wait-free contains during removal is linearizable" (fun () ->
        let r =
          Check.run Conc.Lazy_list_set.correct
            (Test_matrix.make ~init:[ inv_int "Add" 10; inv_int "Add" 15 ]
               [ [ inv_int "Remove" 10; inv_int "Remove" 15 ]; [ inv_int "Contains" 15 ] ])
        in
        Alcotest.(check bool) "passes" true (Check.passed r));
    test "lazy list: unmarked removal loses a validated insert" (fun () ->
        let r =
          Check.run Conc.Lazy_list_set.pre
            (Test_matrix.make ~init:[ inv_int "Add" 10 ]
               [ [ inv_int "Remove" 10 ]; [ inv_int "Add" 15; inv_int "Contains" 15 ] ])
        in
        match r.Check.verdict with
        | Check.Fail (Check.No_witness _) -> ()
        | _ -> Alcotest.fail "expected the lost-insert violation");
    test "segment queue: FIFO across segment boundaries" (fun () ->
        let seq invs =
          Lineup_runtime.Exec_ctx.reset ();
          Lineup_runtime.Exec_ctx.set_current_tid 0;
          Rt.run_inline (fun () ->
              let inst = Conc.Segment_queue.adapter.Adapter.create () in
              List.map inst.Adapter.invoke invs)
        in
        let vi = Lineup_value.Value.int and vu = Lineup_value.Value.unit in
        Alcotest.(check (list value)) "five elements through capacity-2 segments"
          [ vu; vu; vu; vi 1; vi 2; vu; vi 3; vi 4; Lineup_value.Value.Fail ]
          (seq
             [
               inv_int "Enqueue" 1; inv_int "Enqueue" 2; inv_int "Enqueue" 3; inv "TryDequeue";
               inv "TryDequeue"; inv_int "Enqueue" 4; inv "TryDequeue"; inv "TryDequeue";
               inv "TryDequeue";
             ]));
    test "segment queue: commit-before-fill mutation is caught" (fun () ->
        (* a mutated enqueue that publishes the committed flag before
           writing the value: a concurrent dequeue can observe slot's stale
           content — the checker must reject the protocol *)
        let broken =
          let module Var = Lineup_runtime.Shared_var in
          let create () =
            let values = Array.init 4 (fun i -> Var.make ~name:(Fmt.str "v%d" i) 0) in
            let committed =
              Array.init 4 (fun i -> Var.make ~volatile:true ~name:(Fmt.str "c%d" i) false)
            in
            let low = Var.make ~volatile:true ~name:"low" 0 in
            let high = Var.make ~volatile:true ~name:"high" 0 in
            let rec enqueue x =
              let i = Var.read high in
              if i >= 4 then failwith "full"
              else if Var.cas high i (i + 1) then begin
                (* BUG: committed before the value is written *)
                Var.write committed.(i) true;
                Var.write values.(i) x
              end
              else (Rt.yield (); enqueue x)
            in
            let rec try_dequeue () =
              let i = Var.read low in
              if i >= Var.read high then Lineup_value.Value.Fail
              else if Var.cas low i (i + 1) then begin
                while not (Var.read committed.(i)) do
                  Rt.yield ()
                done;
                Lineup_value.Value.int (Var.read values.(i))
              end
              else (Rt.yield (); try_dequeue ())
            in
            {
              Adapter.invoke =
                (fun (iv : Lineup_history.Invocation.t) ->
                  match iv.name, iv.arg with
                  | "Enqueue", Lineup_value.Value.Int x ->
                    enqueue x;
                    Lineup_value.Value.unit
                  | "TryDequeue", Lineup_value.Value.Unit -> try_dequeue ()
                  | _ -> assert false);
            }
          in
          Adapter.make ~name:"broken-segment-queue"
            ~universe:[ inv_int "Enqueue" 200; inv "TryDequeue" ]
            create
        in
        let r =
          Check.run broken
            (Test_matrix.make [ [ inv_int "Enqueue" 200 ]; [ inv "TryDequeue" ] ])
        in
        match r.Check.verdict with
        | Check.Fail (Check.No_witness _) -> ()
        | _ -> Alcotest.failf "expected a violation, got %s" (Report.summary r));
    test "lazy list: sequential set semantics" (fun () ->
        let seq invs =
          Lineup_runtime.Exec_ctx.reset ();
          Lineup_runtime.Exec_ctx.set_current_tid 0;
          Rt.run_inline (fun () ->
              let inst = Conc.Lazy_list_set.correct.Adapter.create () in
              List.map inst.Adapter.invoke invs)
        in
        let vb b = Lineup_value.Value.bool b in
        Alcotest.(check (list value)) "semantics"
          [ vb true; vb false; vb true; vb true; vb false; vb false ]
          (seq
             [
               inv_int "Add" 10; inv_int "Add" 10; inv_int "Contains" 10; inv_int "Remove" 10;
               inv_int "Remove" 10; inv_int "Contains" 10;
             ]));
  ]

(* A miss is one uncached run: phase 1 runs once, also when it fails, and
   is counted as it is without the cache. *)
let cache_miss_tests =
  List.map
    (fun (what, adapter, test) ->
      Helpers.test ("obs_cache: a miss counts the uncached run plus the miss: " ^ what) (fun () ->
          with_temp_dir (fun dir ->
              let uncached = Lineup_observe.Metrics.create () in
              let miss = Lineup_observe.Metrics.create () in
              let r = Check.run ~metrics:uncached adapter test in
              let r' = Obs_cache.check ~metrics:miss ~dir adapter test in
              Alcotest.(check string) "report"
                (Report.check_result_to_string ~adapter ~test r)
                (Report.check_result_to_string ~adapter ~test r');
              Lineup_observe.Metrics.incr uncached "obs_cache.miss";
              Alcotest.(check string) "metrics"
                (Lineup_observe.Metrics.to_json uncached)
                (Lineup_observe.Metrics.to_json miss))))
    [
      "a pass", Conc.Counters.correct, counter_test;
      ( "a phase-1 failure",
        Conc.Cancellation_token_source.adapter,
        Test_matrix.make [ [ inv "Cancel" ]; [ inv "IsCancellationRequested" ] ] );
    ]

let tests = suite @ cache_miss_tests
