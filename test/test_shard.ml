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

(* Three columns: enough serial histories per thread key that the order of
   each key's witness candidates shows in the probe counts. *)
let counter3_test =
  Test_matrix.make [ [ inv "Inc"; inv "Get" ]; [ inv "Inc"; inv "Get" ]; [ inv "Get" ] ]

let bag3_test =
  Test_matrix.make
    [ [ inv_int "Add" 10; inv "TryTake" ]; [ inv_int "Add" 20; inv "TryTake" ]; [ inv "TryTake" ] ]

(* The observation a worker (or a resumed server) sees: the phase-1 set
   written to its Fig. 7 XML, parsed back and rebuilt. *)
let round_trip observation =
  match
    Observation_file.observation_of_histories
      (Observation_file.of_string (Observation_file.to_string observation))
  with
  | Ok observation -> observation
  | Error _ -> Alcotest.fail "the round-tripped observation is nondeterministic"

(* Run the sharded pipeline in-process: synthesize, split, run each
   partition as the worker would — on the observation it rebuilds from the
   XML — and hand the parts to the merge in the given order. *)
let shard_run ?metrics ~order adapter test =
  match Check.synthesize ~config ?metrics adapter test with
  | Error _ -> Alcotest.fail "phase 1 unexpectedly failed"
  | Ok (observation, phase1) ->
    let frontier, interrupted = Check.split_frontier ~config adapter test in
    Alcotest.(check bool) "warm-up ran to completion" false interrupted;
    let worker_observation = round_trip observation in
    let parts =
      List.mapi
        (fun index prefix ->
          Check.run_partition ~config ~observation:worker_observation ~index ~prefix adapter test)
        frontier.Explore.prefixes
    in
    observation, phase1, frontier, order parts

let render adapter test r = Report.check_result_to_string ~adapter ~test r

let stats_t : Explore.stats Alcotest.testable = Alcotest.testable Explore.pp_stats ( = )

(* ---------------- checkpoint store ---------------- *)

(* Plant every partition of a fresh sweep under a [stale] format-version
   header; none of them may load. *)
let stale_version_skipped stale =
  Alcotest.(check int) "current format version" 9 Store.format_version;
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
               weak-memory --por partitions; version 5 changed the order of
               the checkpointed observation XML, and with it the probe
               counts of partitions run on it; version 6 dropped a field
               from the marshaled stats record; version 7 sealed every
               payload behind its digest; versions 8 and 9 dropped counters
               from the marshaled Line-Up state. An older part must read as
               stale, never be unmarshaled or merged into a newer sweep. *)
            stale_version_skipped stale))
      [ 2; 3; 4; 5; 6; 7; 8 ]
  @ [
      test "a checkpoint with a flipped payload bit is skipped" (fun () ->
          (* Unmarshaling a corrupt payload is undefined behaviour: without
             the digest, a flip could crash the loader or load a different
             partition, which the merge would then trust. *)
          with_temp_dir (fun dir ->
              let adapter = Conc.Counters.correct in
              let fingerprint =
                Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test:counter_test
              in
              Store.init_dir ~dir ~fingerprint;
              let _, _, _, parts = shard_run ~order:Fun.id adapter counter_test in
              List.iter (Store.save_part ~dir ~fingerprint) parts;
              let path =
                Filename.concat (Filename.concat dir "parts")
                  (Fmt.str "%04d.part" (Check.partition_index (List.hd parts)))
              in
              let original = read path in
              let header = String.length (Fmt.str "lineup-shard/%d\n%s\n" 8 fingerprint) in
              (* the digest, then the marshaled partition from its first
                 byte to its last *)
              let payload = String.length original - header in
              let offsets =
                List.sort_uniq Int.compare
                  (List.init 24 (fun k -> header + (k * (payload - 1) / 23)))
              in
              List.iter
                (fun ofs ->
                  let corrupt = Bytes.of_string original in
                  Bytes.set_uint8 corrupt ofs (Bytes.get_uint8 corrupt ofs lxor 1);
                  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc corrupt);
                  Alcotest.(check int)
                    (Fmt.str "byte %d flipped: the other parts load" ofs)
                    (List.length parts - 1)
                    (List.length (Store.load_parts ~dir ~fingerprint)))
                offsets));
      test "a resumed sweep re-runs a corrupt checkpoint and merges byte-identically" (fun () ->
          (* The built CLI, as a sweep killed and resumed by hand: halt
             after five checkpoints, flip one bit in the first on disk,
             resume. Which partitions finish first, and whether a sixth
             lands in the same round, is up to the two workers. *)
          let args dir =
            [
              "--local"; "2"; "--max-executions"; "700"; "--dir"; dir; "ConcurrentQueue";
              "Enqueue(200),TryDequeue"; "Enqueue(400),TryDequeue";
            ]
          in
          with_temp_dir (fun dir ->
              with_temp_dir (fun reference_dir ->
                  let want_code, want_report, want_metrics =
                    run_cli "shard-server" (args reference_dir)
                  in
                  Alcotest.(check int) "uninterrupted exit code" 0 want_code;
                  let halted, _, _ = run_cli "shard-server" ("--halt-after" :: "5" :: args dir) in
                  Alcotest.(check int) "halted exit code" 2 halted;
                  let fingerprint =
                    List.nth (String.split_on_char '\n' (read (Filename.concat dir "manifest"))) 1
                  in
                  let saved = List.length (Store.load_parts ~dir ~fingerprint) in
                  Alcotest.(check bool) "at least five checkpoints" true (saved >= 5);
                  let parts = Filename.concat dir "parts" in
                  let path =
                    Sys.readdir parts |> Array.to_list
                    |> List.filter (fun f -> Filename.check_suffix f ".part")
                    |> List.sort String.compare |> List.hd |> Filename.concat parts
                  in
                  let corrupt = Bytes.of_string (read path) in
                  Bytes.set_uint8 corrupt 130 (Bytes.get_uint8 corrupt 130 lxor 1);
                  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc corrupt);
                  Alcotest.(check int) "the corrupt checkpoint is skipped" (saved - 1)
                    (List.length (Store.load_parts ~dir ~fingerprint));
                  let code, report, metrics = run_cli "shard-server" ("--resume" :: args dir) in
                  Alcotest.(check int) "exit code" want_code code;
                  Alcotest.(check string) "report" want_report report;
                  Alcotest.(check string) "metrics" want_metrics metrics)));
    ]

(* ---------------- wire protocol ---------------- *)

(* The bytes [send] writes. *)
let frame_of send =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  send a;
  Unix.close a;
  let frame = In_channel.input_all (Unix.in_channel_of_descr b) in
  Unix.close b;
  frame

(* [recv] on a socketpair holding [frame], its writer closed. *)
let recv_frame recv frame =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close b)
    (fun () ->
      ignore (Unix.write_substring a frame 0 (String.length frame));
      Unix.close a;
      recv b)

(* the wire version, the length and its complement *)
let header_bits = 12 * 8

(* a frame header: [wire], [len] and its complement *)
let header_of ?(wire = Wire.wire_version) len =
  let header = Bytes.create 12 in
  Bytes.set_int32_be header 0 (Int32.of_int wire);
  Bytes.set_int32_be header 4 (Int32.of_int len);
  Bytes.set_int32_be header 8 (Int32.lognot (Int32.of_int len));
  header

let flip s bit =
  let b = Bytes.of_string s in
  Bytes.set_uint8 b (bit / 8) (Bytes.get_uint8 b (bit / 8) lxor (1 lsl (bit mod 8)));
  Bytes.to_string b

let wire_suite =
  [
    test "messages round-trip over a socketpair" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close a with Unix.Unix_error _ -> ());
            try Unix.close b with Unix.Unix_error _ -> ())
          (fun () ->
            Wire.send_to_server a Wire.Hello;
            (match Wire.recv_to_server b with
             | Some Wire.Hello -> ()
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
        (* a header promising 100 bytes, then EOF *)
        ignore (Unix.write a (header_of 100) 0 12);
        Unix.close a;
        Alcotest.(check bool) "truncated frame" true (Option.is_none (Wire.recv_to_server b));
        Alcotest.(check bool) "closed peer" true (Option.is_none (Wire.recv_to_server b));
        Unix.close b);
    test "a frame with any flipped payload bit reads as None" (fun () ->
        (* Without the digest, flips in this frame's payload crashed the
           process (SIGSEGV), raised Out_of_memory or decoded as another
           message. *)
        let frame =
          frame_of (fun fd -> Wire.send_to_server fd (Wire.Failed { index = 7; message = "boom" }))
        in
        (match recv_frame Wire.recv_to_server frame with
         | Some (Wire.Failed { index = 7; message = "boom" }) -> ()
         | _ -> Alcotest.fail "the intact frame must decode");
        for bit = header_bits to (String.length frame * 8) - 1 do
          if Option.is_some (recv_frame Wire.recv_to_server (flip frame bit)) then
            Alcotest.failf "bit %d flipped: the frame still decoded" bit
        done);
    test "frames of other wire versions read as None" (fun () ->
        (* version 3 sent the length alone, version 4 the length and its
           complement, neither the version *)
        let payload = Lineup_shard.Sealed.marshal Wire.Hello in
        let header ?wire () = Bytes.to_string (header_of ?wire (String.length payload)) in
        (match recv_frame Wire.recv_to_server (header () ^ payload) with
         | Some Wire.Hello -> ()
         | _ -> Alcotest.fail "the current frame must decode");
        List.iter
          (fun (what, header) ->
            Alcotest.(check bool) what true
              (Option.is_none (recv_frame Wire.recv_to_server (header ^ payload))))
          [
            "version 3", String.sub (header ()) 4 4;
            "version 4", String.sub (header ()) 4 8;
            "stamped 4", header ~wire:4 ();
            "stamped 6", header ~wire:6 ();
          ]);
    test "a consistent header claiming max_payload allocates what arrived, not the claim"
      (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close b)
          (fun () ->
            ignore (Unix.write a (header_of Wire.max_payload) 0 12);
            ignore (Unix.write a (Bytes.make 100 'x') 0 100);
            Unix.close a;
            let before = Gc.allocated_bytes () in
            Alcotest.(check bool) "None" true (Option.is_none (Wire.recv_to_server b));
            let grown = Gc.allocated_bytes () -. before in
            if grown >= 1048576. then Alcotest.failf "recv allocated %.0f bytes" grown));
    test "a frame with any flipped header bit reads as None while the writer stays open"
      (fun () ->
        (* The digest covers the payload only: a flip that grew an
           unchecked length would leave recv waiting for bytes a live peer
           never sends. The reader's one-second receive timeout keeps such
           a wait from hanging the suite; it shows as a slow None. *)
        let frame =
          frame_of (fun fd -> Wire.send_to_server fd (Wire.Failed { index = 7; message = "boom" }))
        in
        for bit = 0 to header_bits - 1 do
          let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () ->
              Unix.close a;
              Unix.close b)
            (fun () ->
              Unix.setsockopt_float b Unix.SO_RCVTIMEO 1.0;
              let corrupt = flip frame bit in
              ignore (Unix.write_substring a corrupt 0 (String.length corrupt));
              let t0 = Unix.gettimeofday () in
              let got = Wire.recv_to_server b in
              let dt = Unix.gettimeofday () -. t0 in
              if Option.is_some got then
                Alcotest.failf "bit %d flipped: the frame still decoded" bit;
              if dt > 0.5 then Alcotest.failf "bit %d flipped: recv waited %.2f s" bit dt)
        done);
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
    test "merge is byte-identical on the generic witness search (3 columns)" (fun () ->
        (* [config] runs phase 2 on two domains. The witness search's
           probe counts depend on the order of each key's candidates: the
           workers' rebuilt observation must probe them in the order of
           the in-process one. *)
        let adapter = Conc.Counters.correct in
        let m_ref = Metrics.create () in
        let reference = Check.run ~config ~metrics:m_ref adapter counter3_test in
        let m_shard = Metrics.create () in
        let observation, phase1, frontier, parts =
          shard_run ~metrics:m_shard ~order:Fun.id adapter counter3_test
        in
        let merged =
          Check.merge_partitions ~metrics:m_shard ~observation ~phase1 ~frontier parts
        in
        Alcotest.(check string) "rendered report"
          (render adapter counter3_test reference)
          (render adapter counter3_test merged);
        Alcotest.(check string) "metrics registry" (Metrics.to_json m_ref)
          (Metrics.to_json m_shard));
    test "a round-tripped observation checks with the same metrics" (fun () ->
        (* What a worker, a resumed server or an observation-cache hit
           rebuilds from the XML must decide every history with the same
           probes as the observation phase 1 built. Preemption bound 0
           keeps the complete phase 2 small. *)
        let config = Check.config_with ~preemption_bound:(Some 0) () in
        List.iter
          (fun (adapter, test) ->
            match Check.synthesize ~config adapter test with
            | Error _ -> Alcotest.fail "phase 1 unexpectedly failed"
            | Ok (observation, _) ->
              let metrics_with observation =
                let m = Metrics.create () in
                ignore (Check.run ~config ~metrics:m ~observation adapter test);
                Metrics.to_json m
              in
              Alcotest.(check string)
                (adapter.Adapter.name ^ " metrics")
                (metrics_with observation)
                (metrics_with (round_trip observation)))
          [ Conc.Counters.correct, counter3_test; Conc.Concurrent_bag.adapter, bag3_test ]);
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

(* ---------------- decoder fuzzing ---------------- *)

(* Bytes that matter to a length prefix or a marshaled header. *)
let binary_alphabet = [ '\x00'; '\x01'; '\x7f'; '\x80'; '\xff'; '\n' ]

let qcheck ~name ~count gen prop =
  QCheck.Test.check_exn ~rand:(QCheck_base_runner.random_state ())
    (QCheck.Test.make ~name ~count (QCheck.make ~print:(Printf.sprintf "%S") gen) prop)

(* Random bytes, and random payloads behind a header that matches them. *)
let random_frame_gen =
  let open QCheck.Gen in
  let header payload =
    let h = Bytes.create 8 in
    let len = Int32.of_int (String.length payload) in
    Bytes.set_int32_be h 0 len;
    Bytes.set_int32_be h 4 (Int32.lognot len);
    Bytes.to_string h
  in
  oneof
    [
      string_size (int_bound 64);
      map (fun payload -> header payload ^ payload) (string_size (int_bound 64));
    ]

(* A mutated frame of one of [msgs] reads as [None], or as the message it
   still frames whole (an edit after its end). *)
let mutated_frames_decode ~name send recv msgs =
  test name (fun () ->
      List.iter
        (fun msg ->
          let frame = frame_of (fun fd -> send fd msg) in
          qcheck ~name ~count:300 (mutations_gen ~alphabet:binary_alphabet frame) (fun f ->
              match recv_frame recv f with None -> true | Some msg' -> msg' = msg))
        msgs)

let fuzz_suite =
  [
    test "wire: random frames read as None" (fun () ->
        qcheck ~name:"random frames" ~count:1000 random_frame_gen (fun f ->
            Option.is_none (recv_frame Wire.recv_to_server f)
            && Option.is_none (recv_frame Wire.recv_to_worker f)));
    mutated_frames_decode ~name:"wire: mutated frames to the server read as None or intact"
      Wire.send_to_server Wire.recv_to_server
      [ Wire.Hello; Wire.Failed { index = 7; message = "boom" } ];
    mutated_frames_decode ~name:"wire: mutated frames to a worker read as None or intact"
      Wire.send_to_worker Wire.recv_to_worker
      [ Wire.Task { index = 3; prefix = "t0.1.c2" }; Wire.Shutdown ];
    test "store: mutated checkpoint files load as None or as written" (fun () ->
        with_temp_dir (fun dir ->
            let adapter = Conc.Counters.correct in
            let fingerprint =
              Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test:counter_test
            in
            Store.init_dir ~dir ~fingerprint;
            let observation, phase1, frontier, parts =
              shard_run ~order:Fun.id adapter counter_test
            in
            let observation_xml = Observation_file.to_string observation in
            let part = List.hd parts in
            Store.save_phase1 ~dir ~fingerprint ~observation_xml phase1;
            Store.save_frontier ~dir ~fingerprint frontier;
            Store.save_part ~dir ~fingerprint part;
            let prefixes (f : Explore.frontier) =
              List.map Explore.prefix_to_string f.Explore.prefixes, f.Explore.warmup
            in
            let marshaled p = Marshal.to_string p [] in
            (* each file with the test that it loads as None, or as written *)
            let files =
              [
                ( "phase1.bin",
                  fun () ->
                    match Store.load_phase1 ~dir ~fingerprint with
                    | None -> true
                    | Some (xml, p1) -> xml = observation_xml && p1 = phase1 );
                ( "frontier.bin",
                  fun () ->
                    match Store.load_frontier ~dir ~fingerprint with
                    | None -> true
                    | Some f -> prefixes f = prefixes frontier );
                ( Filename.concat "parts" (Fmt.str "%04d.part" (Check.partition_index part)),
                  fun () ->
                    match Store.load_parts ~dir ~fingerprint with
                    | [] -> true
                    | [ p ] -> marshaled p = marshaled part
                    | _ -> false );
              ]
            in
            let header = Fmt.str "lineup-shard/%d\n%s\n" Store.format_version fingerprint in
            List.iter
              (fun (file, loads_clean) ->
                let path = Filename.concat dir file in
                let original = read path in
                let gen =
                  QCheck.Gen.(
                    oneof
                      [
                        mutations_gen ~alphabet:binary_alphabet original;
                        (* a random payload behind the right header *)
                        map (fun payload -> header ^ payload) (string_size (int_bound 96));
                      ])
                in
                qcheck ~name:file ~count:300 gen (fun contents ->
                    Out_channel.with_open_bin path (fun oc ->
                        Out_channel.output_string oc contents);
                    loads_clean ());
                Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc original))
              files));
  ]

(* ---------------- kill points ---------------- *)

(* The shard-equivalence sweep killed after every checkpoint it writes
   before the last: each must resume to the bytes of an uninterrupted
   in-process run, counting its checkpoints as hits. *)
let kill_point_suite =
  [
    test "a sweep halted after any checkpoint resumes byte-identically" (fun () ->
        let args =
          [ "ConcurrentQueue"; "Enqueue(200),TryDequeue"; "Enqueue(400),TryDequeue" ]
        in
        let want_code, want_report, want_metrics = run_cli "check" (args @ [ "-j"; "2"; "-v" ]) in
        let stat dir key =
          let ( let* ) = Option.bind in
          let json = read (Filename.concat dir "shard-stats.json") in
          match
            let* doc = Result.to_option (Ndjson.parse json) in
            Ndjson.member key doc
          with
          | Some v -> v
          | None -> Alcotest.failf "no %s in shard-stats.json: %s" key json
        in
        for n = 1 to 13 do
          with_temp_dir (fun dir ->
              let shard extra =
                run_cli "shard-server" (args @ [ "--dir"; dir; "--local"; "2" ] @ extra)
              in
              let halted, _, _ = shard [ "--halt-after"; string_of_int n ] in
              Alcotest.(check int) (Fmt.str "N=%d: halted exit code" n) 2 halted;
              let code, report, metrics = shard [ "--resume"; "-v" ] in
              Alcotest.(check int) (Fmt.str "N=%d: exit code" n) want_code code;
              Alcotest.(check string) (Fmt.str "N=%d: report" n) want_report report;
              Alcotest.(check string) (Fmt.str "N=%d: metrics" n) want_metrics metrics;
              Alcotest.(check (option int)) (Fmt.str "N=%d: partitions" n) (Some 14)
                (Ndjson.to_int (stat dir "partitions"));
              (match Ndjson.to_int (stat dir "checkpoint_hits") with
               | Some hits when hits >= n -> ()
               | hits ->
                 Alcotest.failf "N=%d: %a checkpoint hits" n
                   Fmt.(option ~none:(any "no") int)
                   hits);
              Alcotest.(check bool) (Fmt.str "N=%d: not halted" n) true
                (stat dir "halted" = Ndjson.Bool false))
        done);
  ]

(* A client that sends the first 4 bytes of a frame header and then
   nothing, connected before the one real worker: the server drops it at
   its receive deadline, and the sweep ends with check -j's report. *)
let silent_peer_suite =
  [
    test "a silent peer does not stall the sweep" (fun () ->
        let args = [ "Counter"; "Inc,Get"; "Inc" ] in
        let want_code, want_report, want_metrics = run_cli "check" (args @ [ "-j"; "2"; "-v" ]) in
        with_temp_dir (fun dir ->
            let server = spawn_cli "shard-server" (args @ [ "--dir"; dir; "--local"; "0"; "-v" ]) in
            let sock = Filename.concat dir "sock" in
            let silent = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close silent)
              (fun () ->
                (* the socket appears once phase 1 and the frontier are done *)
                let rec connect tries =
                  try Unix.connect silent (Unix.ADDR_UNIX sock)
                  with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
                    Unix.sleepf 0.01;
                    connect (tries - 1)
                in
                connect 1000;
                ignore (Unix.write_substring silent "\000\000\000\005" 0 4);
                Unix.sleepf 0.5;
                let start = Unix.gettimeofday () in
                let worker = spawn_cli ~metrics:false "shard-worker" [ "--connect"; sock ] in
                let code, report, metrics = server () in
                let elapsed = Unix.gettimeofday () -. start in
                ignore (worker ());
                Alcotest.(check int) "exit code" want_code code;
                Alcotest.(check string) "report" want_report report;
                Alcotest.(check string) "metrics" want_metrics metrics;
                Alcotest.(check bool)
                  (Fmt.str "the sweep ended %.1f s after the worker started" elapsed)
                  true
                  (elapsed < Server.recv_deadline +. 10.))));
  ]

let tests =
  store_suite @ wire_suite @ eintr_suite @ merge_suite @ fuzz_suite @ kill_point_suite
  @ silent_peer_suite
