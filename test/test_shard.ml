(* The multi-process sharding layer (lib/shard): the checkpoint store's
   format/fingerprint discipline, the wire framing, and — the load-bearing
   contract — that splitting phase 2 into marshaled partition jobs and
   merging the checkpoints reproduces the in-process frontier run
   byte-for-byte, regardless of completion order or resume cycles. *)

open Helpers
module Conc = Lineup_conc
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
module Wire = Lineup_shard.Wire
module Store = Lineup_shard.Store
module Server = Lineup_shard.Server
open Lineup

(* Small matrices, capped phase 2, frontier path on: every test here stays
   well under a second of exploration. *)
let config = Check.config_with ~max_executions:(Some 300) ~phase2_domains:2 ~frontier_depth:3 ()

let counter_test = Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]
let mre_test = Test_matrix.make [ [ inv "Wait" ]; [ inv "Set" ] ]

let with_temp_dir f =
  let dir = Filename.temp_file "lineup" "shard" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

(* Run the sharded pipeline in-process: synthesize, split, run each
   partition as the worker would, and hand the parts to the merge in the
   given order. *)
let shard_run ?metrics ~order adapter test =
  match Check.synthesize ~config ?metrics adapter test with
  | Error _ -> Alcotest.fail "phase 1 unexpectedly failed"
  | Ok (observation, phase1) ->
    let frontier, interrupted = Check.split_frontier ~config adapter test in
    Alcotest.(check bool) "warm-up ran to completion" false interrupted;
    let parts =
      List.mapi
        (fun index prefix -> Check.run_partition ~config ~observation ~index ~prefix adapter test)
        frontier.Explore.prefixes
    in
    observation, phase1, frontier, order parts

let render adapter test r = Report.check_result_to_string ~adapter ~test r

let stats_t : Explore.stats Alcotest.testable = Alcotest.testable Explore.pp_stats ( = )

(* ---------------- checkpoint store ---------------- *)

(* Plant every partition of a fresh sweep under a [stale] format-version
   header; none of them may load. *)
let stale_version_skipped stale =
  Alcotest.(check int) "current format version" 4 Store.format_version;
  with_temp_dir (fun dir ->
      let adapter = Conc.Counters.correct in
      let fingerprint =
        Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test:counter_test
      in
      Store.init_dir ~dir ~fingerprint;
      let _, _, _, parts = shard_run ~order:Fun.id adapter counter_test in
      List.iter
        (fun part ->
          let path =
            Filename.concat (Filename.concat dir "parts")
              (Fmt.str "%04d.part" (Check.partition_index part))
          in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Fmt.str "lineup-shard/%d\n%s\n%s" stale fingerprint (Marshal.to_string part []))))
        parts;
      Alcotest.(check bool) "parts were planted" true (parts <> []);
      Alcotest.(check int) "no stale part loads" 0
        (List.length (Store.load_parts ~dir ~fingerprint)))

let store_suite =
  [
    test "fingerprint keys the sweep, not the domain count" (fun () ->
        let fp c = Store.fingerprint ~config:c ~adapter:"Counter" ~test:counter_test in
        let base = fp config in
        let with_ ?(cap = 300) ?(depth = 3) ?classic_only ?por j =
          Check.config_with ~max_executions:(Some cap) ~phase2_domains:j ~frontier_depth:depth
            ?classic_only ?por ()
        in
        Alcotest.(check bool)
          "phase2_domains excluded (any -j resumes the same dir)" true
          (String.equal base (fp (with_ 7)));
        List.iter
          (fun (what, c) ->
            Alcotest.(check bool) (what ^ " changes the fingerprint") false
              (String.equal base (fp c)))
          [
            "frontier depth", with_ ~depth:4 2;
            "execution budget", with_ ~cap:299 2;
            "classic_only", with_ ~classic_only:true 2;
            "por", with_ ~por:true 2;
          ];
        Alcotest.(check bool) "adapter name changes the fingerprint" false
          (String.equal base
             (Store.fingerprint ~config ~adapter:"Counter1" ~test:counter_test));
        Alcotest.(check bool) "test content changes the fingerprint" false
          (String.equal base (Store.fingerprint ~config ~adapter:"Counter" ~test:mre_test)));
    test "phase1/frontier/parts round-trip through a run directory" (fun () ->
        with_temp_dir (fun dir ->
            let adapter = Conc.Counters.correct in
            let fingerprint =
              Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test:counter_test
            in
            Store.init_dir ~dir ~fingerprint;
            Alcotest.(check (result unit string)) "fresh dir validates" (Ok ())
              (Store.validate_dir ~dir ~fingerprint);
            let observation, phase1, frontier, parts =
              shard_run ~order:Fun.id adapter counter_test
            in
            let xml = Observation_file.to_string observation in
            Store.save_phase1 ~dir ~fingerprint ~observation_xml:xml phase1;
            (match Store.load_phase1 ~dir ~fingerprint with
             | None -> Alcotest.fail "phase1 checkpoint did not load"
             | Some (xml', phase1') ->
               Alcotest.(check string) "observation XML" xml xml';
               Alcotest.(check stats_t) "phase-1 stats" phase1.Check.stats phase1'.Check.stats;
               Alcotest.(check int) "phase-1 histories" phase1.Check.histories
                 phase1'.Check.histories);
            Store.save_frontier ~dir ~fingerprint frontier;
            (match Store.load_frontier ~dir ~fingerprint with
             | None -> Alcotest.fail "frontier checkpoint did not load"
             | Some f' ->
               Alcotest.(check (list string)) "prefixes"
                 (List.map Explore.prefix_to_string frontier.Explore.prefixes)
                 (List.map Explore.prefix_to_string f'.Explore.prefixes);
               Alcotest.(check stats_t) "warm-up stats" frontier.Explore.warmup
                 f'.Explore.warmup);
            List.iter (Store.save_part ~dir ~fingerprint) parts;
            let loaded = Store.load_parts ~dir ~fingerprint in
            let indices ps = List.sort Int.compare (List.map Check.partition_index ps) in
            Alcotest.(check (list int)) "all partition indices restored" (indices parts)
              (indices loaded);
            let execs ps =
              let by_index a b = Int.compare (Check.partition_index a) (Check.partition_index b) in
              List.map Check.partition_executions (List.sort by_index ps)
            in
            Alcotest.(check (list int)) "per-partition executions survive" (execs parts)
              (execs loaded)));
    test "stale fingerprints are ignored, never merged" (fun () ->
        with_temp_dir (fun dir ->
            let adapter = Conc.Counters.correct in
            let fp_a = Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test:counter_test in
            let fp_b = Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test:mre_test in
            Store.init_dir ~dir ~fingerprint:fp_a;
            let _, phase1, frontier, parts = shard_run ~order:Fun.id adapter counter_test in
            Store.save_phase1 ~dir ~fingerprint:fp_a ~observation_xml:"<x/>" phase1;
            Store.save_frontier ~dir ~fingerprint:fp_a frontier;
            List.iter (Store.save_part ~dir ~fingerprint:fp_a) parts;
            Alcotest.(check bool) "mismatched manifest fails validation" true
              (Result.is_error (Store.validate_dir ~dir ~fingerprint:fp_b));
            Alcotest.(check bool) "stale phase1 not loaded" true
              (Option.is_none (Store.load_phase1 ~dir ~fingerprint:fp_b));
            Alcotest.(check bool) "stale frontier not loaded" true
              (Option.is_none (Store.load_frontier ~dir ~fingerprint:fp_b));
            Alcotest.(check int) "stale parts not loaded" 0
              (List.length (Store.load_parts ~dir ~fingerprint:fp_b))));
    test "corrupt or truncated checkpoints are skipped" (fun () ->
        with_temp_dir (fun dir ->
            let adapter = Conc.Counters.correct in
            let fingerprint =
              Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test:counter_test
            in
            Store.init_dir ~dir ~fingerprint;
            let _, _, _, parts = shard_run ~order:Fun.id adapter counter_test in
            List.iter (Store.save_part ~dir ~fingerprint) parts;
            let plant name content =
              let oc = open_out (Filename.concat (Filename.concat dir "parts") name) in
              output_string oc content;
              close_out oc
            in
            plant "9998.part" "not a checkpoint at all";
            (* right header, garbage payload *)
            plant "9999.part" (Fmt.str "lineup-shard/%d\n%s\n@@@" Store.format_version fingerprint);
            let loaded = Store.load_parts ~dir ~fingerprint in
            Alcotest.(check int) "only the valid checkpoints load" (List.length parts)
              (List.length loaded)));
  ]
  @ List.map
      (fun stale ->
        test (Fmt.str "checkpoints stamped with format version %d are skipped" stale) (fun () ->
            (* Version 3 changed the marshaled partition type (the dedup
               table); version 4 changed the execution counts of bounded
               weak-memory --por partitions. An older part must read as
               stale, never be unmarshaled or merged into a newer sweep. *)
            stale_version_skipped stale))
      [ 2; 3 ]

(* ---------------- wire protocol ---------------- *)

let wire_suite =
  [
    test "messages round-trip over a socketpair" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close a with Unix.Unix_error _ -> ());
            try Unix.close b with Unix.Unix_error _ -> ())
          (fun () ->
            Wire.send_to_server a (Wire.Hello { wire = Wire.wire_version });
            (match Wire.recv_to_server b with
             | Some (Wire.Hello { wire }) ->
               Alcotest.(check int) "hello carries the wire version" Wire.wire_version wire
             | _ -> Alcotest.fail "expected Hello");
            Wire.send_to_server a (Wire.Failed { index = 7; message = "boom" });
            (match Wire.recv_to_server b with
             | Some (Wire.Failed { index; message }) ->
               Alcotest.(check int) "failed index" 7 index;
               Alcotest.(check string) "failed message" "boom" message
             | _ -> Alcotest.fail "expected Failed");
            let adapter = Conc.Counters.correct in
            let _, _, frontier, parts = shard_run ~order:Fun.id adapter counter_test in
            let part = List.hd parts in
            Wire.send_to_server a (Wire.Result { index = 0; part });
            (match Wire.recv_to_server b with
             | Some (Wire.Result { index; part = part' }) ->
               Alcotest.(check int) "result index" 0 index;
               Alcotest.(check int) "partition index" (Check.partition_index part)
                 (Check.partition_index part');
               Alcotest.(check int) "partition executions" (Check.partition_executions part)
                 (Check.partition_executions part')
             | _ -> Alcotest.fail "expected Result");
            Wire.send_to_worker b
              (Wire.Init
                 {
                   i_fingerprint = "fp";
                   i_config = config;
                   i_adapter = adapter.Adapter.name;
                   i_test = counter_test;
                   i_observation = "<lineup/>";
                 });
            (match Wire.recv_to_worker a with
             | Some (Wire.Init i) ->
               Alcotest.(check string) "init fingerprint" "fp" i.Wire.i_fingerprint;
               Alcotest.(check string) "init adapter" adapter.Adapter.name i.Wire.i_adapter;
               Alcotest.(check bool) "init test" true
                 (Test_matrix.equal counter_test i.Wire.i_test)
             | _ -> Alcotest.fail "expected Init");
            let prefix = Explore.prefix_to_string (List.hd frontier.Explore.prefixes) in
            Wire.send_to_worker b (Wire.Task { index = 3; prefix });
            (match Wire.recv_to_worker a with
             | Some (Wire.Task { index; prefix = p }) ->
               Alcotest.(check int) "task index" 3 index;
               Alcotest.(check string) "task prefix" prefix p
             | _ -> Alcotest.fail "expected Task");
            Wire.send_to_worker b Wire.Shutdown;
            match Wire.recv_to_worker a with
            | Some Wire.Shutdown -> ()
            | _ -> Alcotest.fail "expected Shutdown"));
    test "a truncated frame or closed peer reads as None" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (* length prefix promising 100 bytes, then EOF *)
        let partial = Bytes.create 4 in
        Bytes.set_uint8 partial 0 0;
        Bytes.set_uint8 partial 1 0;
        Bytes.set_uint8 partial 2 0;
        Bytes.set_uint8 partial 3 100;
        ignore (Unix.write a partial 0 4);
        Unix.close a;
        Alcotest.(check bool) "truncated frame" true (Option.is_none (Wire.recv_to_server b));
        Alcotest.(check bool) "closed peer" true (Option.is_none (Wire.recv_to_server b));
        Unix.close b);
  ]

(* ---------------- EINTR on the blocking paths ---------------- *)

(* Regression tests for [Wire]'s EINTR handling: OCaml installs signal
   handlers without SA_RESTART, so any signal (a SIGCHLD from a finished
   worker, a SIGALRM from a user's profiler) interrupts a blocking
   [Unix.read]/[Unix.write] mid-frame. Before the fix, [read_exact]
   returned a torn frame (recv [None] → the server declared a live worker
   dead) and [write_all] raised [EINTR], killing the worker mid-send.
   Here a repeating interval timer hammers the calling thread with
   SIGALRM while the main domain blocks in recv/send. *)
let with_sigalrm_storm f =
  let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let interval = { Unix.it_interval = 0.005; it_value = 0.005 } in
  ignore (Unix.setitimer Unix.ITIMER_REAL interval);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
      Sys.set_signal Sys.sigalrm prev)
    f

let eintr_suite =
  [
    test "recv survives signals while blocked mid-frame" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            Unix.close a;
            Unix.close b)
          (fun () ->
            let sender =
              Domain.spawn (fun () ->
                  (* long enough for several timer ticks to land while the
                     main domain is parked inside Unix.read *)
                  Unix.sleepf 0.15;
                  Wire.send_to_server a (Wire.Failed { index = 3; message = "late" }))
            in
            with_sigalrm_storm (fun () ->
                match Wire.recv_to_server b with
                | Some (Wire.Failed { index; message }) ->
                  Alcotest.(check int) "index" 3 index;
                  Alcotest.(check string) "message" "late" message
                | _ -> Alcotest.fail "frame lost to EINTR");
            Domain.join sender));
    test "send survives signals across a many-buffer payload" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            Unix.close a;
            Unix.close b)
          (fun () ->
            (* far larger than a socket buffer, so write_all needs many
               partial writes — each a chance to be interrupted *)
            let payload = String.make (8 * 1024 * 1024) 'x' in
            (* the payload dwarfs the socket buffer, so the sender blocks
               on buffer space over and over while the drain catches up —
               each block a chance for SIGALRM to interrupt the write *)
            let receiver = Domain.spawn (fun () -> Wire.recv_to_server b) in
            with_sigalrm_storm (fun () ->
                Wire.send_to_server a (Wire.Failed { index = 0; message = payload }));
            match Domain.join receiver with
            | Some (Wire.Failed { message; _ }) ->
              Alcotest.(check int) "payload intact" (String.length payload)
                (String.length message)
            | _ -> Alcotest.fail "large frame lost"));
  ]

(* ---------------- merge determinism ---------------- *)

let merge_suite =
  [
    test "merge is byte-identical to the in-process frontier run (passing class)" (fun () ->
        let adapter = Conc.Counters.correct in
        let m_ref = Metrics.create () in
        let reference = Check.run ~config ~metrics:m_ref adapter counter_test in
        let m_shard = Metrics.create () in
        (* reversed completion order: the merge must not care *)
        let observation, phase1, frontier, parts =
          shard_run ~metrics:m_shard ~order:List.rev adapter counter_test
        in
        let merged =
          Check.merge_partitions ~metrics:m_shard ~observation ~phase1 ~frontier parts
        in
        Alcotest.(check bool) "verdict passes" true (Check.passed merged);
        Alcotest.(check string) "rendered report"
          (render adapter counter_test reference)
          (render adapter counter_test merged);
        Alcotest.(check string) "metrics registry" (Metrics.to_json m_ref)
          (Metrics.to_json m_shard));
    test "merge re-applies the cut rule on a failing class" (fun () ->
        (* Checkpoints past the earliest stopping partition may exist on
           disk (written before the stop, or by a resumed over-eager
           sweep); the merge must ignore them exactly as the in-process
           pool discards late siblings. *)
        let adapter = Conc.Manual_reset_event.lost_signal in
        let m_ref = Metrics.create () in
        let reference = Check.run ~config ~metrics:m_ref adapter mre_test in
        Alcotest.(check bool) "reference fails" true (Check.failed reference);
        let m_shard = Metrics.create () in
        let observation, phase1, frontier, parts =
          shard_run ~metrics:m_shard ~order:Fun.id adapter mre_test
        in
        (* every partition completed — a superset of what -j would keep *)
        let merged =
          Check.merge_partitions ~metrics:m_shard ~observation ~phase1 ~frontier
            (List.rev parts)
        in
        Alcotest.(check bool) "verdict fails" true (Check.failed merged);
        Alcotest.(check string) "rendered report"
          (render adapter mre_test reference) (render adapter mre_test merged);
        Alcotest.(check string) "metrics registry" (Metrics.to_json m_ref)
          (Metrics.to_json m_shard));
    test "server --resume with a fully checkpointed dir merges without workers" (fun () ->
        (* The socket-free resume path: every partition already on disk →
           Server.run goes straight to the merge and must reproduce the
           in-process run, re-ingesting phase-1 counters for metric
           byte-identity. Also proves no finished partition is re-explored
           (there are no workers to explore anything). *)
        with_temp_dir (fun dir ->
            let adapter = Conc.Counters.correct in
            let m_ref = Metrics.create () in
            let reference = Check.run ~config ~metrics:m_ref adapter counter_test in
            let fingerprint =
              Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test:counter_test
            in
            Store.init_dir ~dir ~fingerprint;
            let observation, phase1, frontier, parts =
              shard_run ~order:Fun.id adapter counter_test
            in
            Store.save_phase1 ~dir ~fingerprint
              ~observation_xml:(Observation_file.to_string observation)
              phase1;
            Store.save_frontier ~dir ~fingerprint frontier;
            List.iter (Store.save_part ~dir ~fingerprint) parts;
            let m_resume = Metrics.create () in
            (match
               Server.run ~config ~metrics:m_resume ~resume:true ~dir ~adapter
                 ~test:counter_test ()
             with
             | Server.Report merged ->
               Alcotest.(check string) "rendered report"
                 (render adapter counter_test reference)
                 (render adapter counter_test merged);
               Alcotest.(check string) "metrics registry" (Metrics.to_json m_ref)
                 (Metrics.to_json m_resume)
             | Server.Halted _ | Server.Failed_run _ ->
               Alcotest.fail "expected a merged report");
            (* progress counters land in shard-stats.json *)
            let ic = open_in (Store.stats_path ~dir) in
            let stats_json =
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            let contains sub =
              let n = String.length sub and m = String.length stats_json in
              let rec go i = i + n <= m && (String.sub stats_json i n = sub || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool) "schema marker" true (contains "lineup-shard-stats/1");
            Alcotest.(check bool) "all partitions were checkpoint hits" true
              (contains (Fmt.str "\"checkpoint_hits\": %d" (List.length parts)))));
  ]

let tests = store_suite @ wire_suite @ eintr_suite @ merge_suite
