(* Tests for the observability layer: the metrics registry's determinism
   contract (identical counters — and bytes — for every -j value), and the
   NDJSON trace sink. *)

open Helpers
module Conc = Lineup_conc
module Metrics = Lineup_observe.Metrics
module Trace = Lineup_observe.Trace
open Lineup

let counter_test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

let with_temp_file f =
  let path = Filename.temp_file "lineup" "observe" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let suite =
  [
    test "metrics: add/incr/get basics" (fun () ->
        let m = Metrics.create () in
        Alcotest.(check int) "unregistered is 0" 0 (Metrics.get m "a");
        Metrics.incr m "a";
        Metrics.add m "a" 2;
        Metrics.add m "b" 0;
        Alcotest.(check int) "a" 3 (Metrics.get m "a");
        Alcotest.(check int) "b pinned at 0" 0 (Metrics.get m "b");
        Alcotest.(check (list (pair string int))) "sorted assoc"
          [ "a", 3; "b", 0 ]
          (Metrics.to_assoc m));
    test "metrics: merge_into is pointwise addition" (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        Metrics.add a "x" 1;
        Metrics.add b "x" 2;
        Metrics.add b "y" 5;
        Metrics.merge_into ~into:a b;
        Alcotest.(check int) "x" 3 (Metrics.get a "x");
        Alcotest.(check int) "y" 5 (Metrics.get a "y"));
    test "metrics: to_json is order-insensitive and byte-stable" (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        List.iter (fun (k, v) -> Metrics.add a k v) [ "z", 1; "a", 2; "m", 3 ];
        List.iter (fun (k, v) -> Metrics.add b k v) [ "m", 3; "z", 1; "a", 2 ];
        Alcotest.(check string) "identical JSON" (Metrics.to_json a) (Metrics.to_json b));
    test "auto: metrics are -j independent" (fun () ->
        let collect domains =
          let m = Metrics.create () in
          ignore (Auto_check.run ~domains ~metrics:m ~max_tests:9 Conc.Counters.correct);
          Metrics.to_json m
        in
        Alcotest.(check string) "j=1 equals j=4" (collect 1) (collect 4));
    test "random run_parallel: metrics are -j independent" (fun () ->
        let collect domains =
          let m = Metrics.create () in
          ignore
            (Random_check.run_parallel ~domains ~metrics:m ~seed:7
               ~invocations:[ inv "Inc"; inv "Get" ]
               ~rows:2 ~cols:2 ~samples:8 Conc.Counters.correct);
          Metrics.to_json m
        in
        Alcotest.(check string) "j=1 equals j=3" (collect 1) (collect 3));
    test "random run_parallel with stop_at_first: metrics are -j independent" (fun () ->
        (* the deterministic prefix cut: discarded jobs must not leak
           counters into the merged summary *)
        let collect domains =
          let m = Metrics.create () in
          ignore
            (Random_check.run_parallel ~domains ~stop_at_first:true ~metrics:m ~seed:3
               ~invocations:[ inv "Inc"; inv "Get" ]
               ~rows:2 ~cols:2 ~samples:12 Conc.Counters.buggy_unlocked);
          Metrics.to_json m
        in
        let j1 = collect 1 in
        Alcotest.(check string) "j=1 equals j=4" j1 (collect 4);
        Alcotest.(check string) "repeatable" j1 (collect 1));
    test "check: counters reflect the run" (fun () ->
        let m = Metrics.create () in
        let r = Check.run ~metrics:m Conc.Counters.correct counter_test in
        Alcotest.(check bool) "passes" true (Check.passed r);
        Alcotest.(check int) "one run" 1 (Metrics.get m "check.runs");
        Alcotest.(check int) "one pass" 1 (Metrics.get m "check.passes");
        Alcotest.(check int) "phase-1 histories" r.Check.phase1.Check.histories
          (Metrics.get m "check.phase1.histories");
        Alcotest.(check int) "phase-1 executions"
          r.Check.phase1.Check.stats.Lineup_scheduler.Explore.executions
          (Metrics.get m "explore.phase1.executions");
        Alcotest.(check bool) "witness searches happened" true
          (Metrics.get m "analyze.lineup.witness_searches" > 0);
        Alcotest.(check bool) "probes >= searches" true
          (Metrics.get m "analyze.lineup.witness_probes"
           >= Metrics.get m "analyze.lineup.witness_searches"));
    test "metrics file parses and carries the schema marker" (fun () ->
        with_temp_file (fun path ->
            let m = Metrics.create () in
            Metrics.add m "check.runs" 1;
            Metrics.write_file m ~path;
            let ic = open_in path in
            let content =
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            Alcotest.(check string) "file equals to_json" (Metrics.to_json m) content;
            Alcotest.(check bool) "schema marker" true
              (contains ~sub:"lineup-metrics/7" content)));
    test "trace: emits one well-formed NDJSON line per event" (fun () ->
        with_temp_file (fun path ->
            Trace.with_trace ~path:(Some path) (fun () ->
                Alcotest.(check bool) "enabled inside" true (Trace.enabled ());
                Trace.emit "test.event"
                  [ "n", Trace.Int 3; "ok", Trace.Bool true; "s", Trace.Str "a\"b" ];
                Trace.emit "test.other" []);
            Alcotest.(check bool) "disabled outside" false (Trace.enabled ());
            let ic = open_in path in
            let lines = ref [] in
            (try
               while true do
                 lines := input_line ic :: !lines
               done
             with End_of_file -> close_in ic);
            let lines = List.rev !lines in
            Alcotest.(check int) "two lines" 2 (List.length lines);
            List.iter
              (fun line ->
                Alcotest.(check bool) "object shape" true
                  (String.length line > 2 && line.[0] = '{'
                   && line.[String.length line - 1] = '}'))
              lines;
            Alcotest.(check bool) "event name present" true
              (contains ~sub:"\"ev\":\"test.event\"" (List.hd lines));
            Alcotest.(check bool) "escaped string field" true
              (contains ~sub:"\"s\":\"a\\\"b\"" (List.hd lines))));
    test "trace: emit outside with_trace is a no-op" (fun () ->
        Trace.emit "never.seen" [ "n", Trace.Int 1 ];
        Alcotest.(check bool) "disabled" false (Trace.enabled ()));
    test "trace: killed-mid-run file parses line-by-line (per-event flush)" (fun () ->
        (* The crash-durability guarantee: every emitted event is a complete
           line on disk the moment [emit] returns — a SIGKILL at any point
           loses at most the event being written. Simulated by reading the
           file while the sink is still open: what a concurrent reader sees
           is exactly what a post-kill reader would see. *)
        with_temp_file (fun path ->
            Trace.enable ~path;
            Fun.protect ~finally:Trace.close (fun () ->
                for i = 1 to 50 do
                  Trace.emit "kill.test" [ "i", Trace.Int i ]
                done;
                let ic = open_in path in
                let lines = ref [] in
                (try
                   while true do
                     lines := input_line ic :: !lines
                   done
                 with End_of_file -> close_in ic);
                Alcotest.(check int) "all 50 events on disk before close" 50
                  (List.length !lines);
                List.iter
                  (fun line ->
                    Alcotest.(check bool) "complete object line" true
                      (String.length line > 2
                       && String.sub line 0 5 = "{\"t\":"
                       && line.[String.length line - 1] = '}'))
                  !lines)));
  ]

(* -------- the NDJSON parser, non-finite floats, atomic writes -------- *)

module Atomic_file = Lineup_observe.Atomic_file

let crash_path_suite =
  [
    test "ndjson: parses the trace vocabulary" (fun () ->
        let ok s = match Ndjson.parse s with Ok j -> j | Error e -> Alcotest.fail e in
        let j = ok {|{"t":1.5,"ev":"call","tid":0,"op":3,"name":"A \"b\"","neg":-2,"u":"é"}|} in
        Alcotest.(check (option int)) "tid" (Some 0)
          (Option.bind (Ndjson.member "tid" j) Ndjson.to_int);
        Alcotest.(check (option int)) "op" (Some 3)
          (Option.bind (Ndjson.member "op" j) Ndjson.to_int);
        Alcotest.(check (option int)) "neg" (Some (-2))
          (Option.bind (Ndjson.member "neg" j) Ndjson.to_int);
        Alcotest.(check (option string)) "escaped name" (Some {|A "b"|})
          (Option.bind (Ndjson.member "name" j) Ndjson.to_str);
        Alcotest.(check (option string)) "unicode escape" (Some "\xc3\xa9")
          (Option.bind (Ndjson.member "u" j) Ndjson.to_str);
        ignore (ok {|[1, 2.5, true, false, null, "x", {}]|});
        ignore (ok {|{"nested":{"a":[{"b":1}]}}|}));
    test "ndjson: rejects malformed input" (fun () ->
        let bad s =
          match Ndjson.parse s with Ok _ -> Alcotest.failf "parsed %S" s | Error _ -> ()
        in
        List.iter bad
          [ ""; "{"; "{\"a\":}"; "tru"; "1 2"; "{\"a\":1,}"; "\"unterminated";
            "{\"a\" 1}"; "nan" ]);
    test "ndjson: to_int only on exact integers" (fun () ->
        let geti s = Option.bind (Result.to_option (Ndjson.parse s)) Ndjson.to_int in
        Alcotest.(check (option int)) "int" (Some 7) (geti "7");
        Alcotest.(check (option int)) "fraction" None (geti "7.25");
        Alcotest.(check (option int)) "too big for exact float" None (geti "1e300"));
    test "trace: non-finite floats are emitted as null" (fun () ->
        (* crash-path regression: "%f" would print "nan"/"inf", which is
           not JSON — a monitor replaying the trace would abort *)
        with_temp_file (fun path ->
            Trace.enable ~path;
            Fun.protect ~finally:Trace.close (fun () ->
                Trace.emit "x"
                  [ "a", Trace.Float Float.nan;
                    "b", Trace.Float Float.infinity;
                    "c", Trace.Float 1.5;
                  ];
                let ic = open_in path in
                let line = input_line ic in
                close_in ic;
                match Ndjson.parse line with
                | Error e -> Alcotest.failf "unparseable trace line %S: %s" line e
                | Ok j ->
                  Alcotest.(check bool) "nan is null" true
                    (Ndjson.member "a" j = Some Ndjson.Null);
                  Alcotest.(check bool) "inf is null" true
                    (Ndjson.member "b" j = Some Ndjson.Null);
                  Alcotest.(check bool) "finite survives" true
                    (match Ndjson.member "c" j with
                     | Some (Ndjson.Num f) -> f = 1.5
                     | _ -> false))));
    test "atomic_file: complete content, no temp residue" (fun () ->
        with_temp_file (fun path ->
            Atomic_file.write ~path "first";
            Atomic_file.write ~path "second version";
            let ic = open_in_bin path in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            Alcotest.(check string) "last write wins, complete" "second version" s;
            let dir = Filename.dirname path and base = Filename.basename path in
            let residue =
              Array.to_list (Sys.readdir dir)
              |> List.filter (fun f ->
                     String.length f > String.length base
                     && String.sub f 0 (String.length base) = base)
            in
            Alcotest.(check (list string)) "no tmp files left" [] residue));
    test "atomic_file: domains writing one path do not share a staging file" (fun () ->
        with_temp_file (fun path ->
            let contents = String.make 100_000 'x' in
            let writers =
              List.init 4 (fun _ ->
                  Domain.spawn (fun () ->
                      for _ = 1 to 25 do
                        Atomic_file.write ~path contents
                      done))
            in
            List.iter Domain.join writers;
            Alcotest.(check int) "complete" (String.length contents)
              (String.length (In_channel.with_open_bin path In_channel.input_all))));
    test "metrics: write_file is atomic (never a partial JSON)" (fun () ->
        (* kill-durability regression for the truncate-then-write bug: a
           reader opening the path mid-write must always see a complete
           JSON object — with rename-into-place it sees either the old or
           the new version, never a prefix *)
        with_temp_file (fun path ->
            let m = Metrics.create () in
            Metrics.add m "ops" 1 ;
            Metrics.write_file m ~path;
            for i = 2 to 20 do
              Metrics.add m "ops" 1;
              Metrics.write_file m ~path;
              let ic = open_in_bin path in
              let s = really_input_string ic (in_channel_length ic) in
              close_in ic;
              match Ndjson.parse s with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "partial metrics file at step %d: %s" i e
            done));
  ]

let tests = suite @ crash_path_suite
