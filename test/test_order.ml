(* The exploration-order pin.

   Each row explores a fixed set of registry subjects under one explorer
   configuration, with access logging on, and folds every execution, in
   the order the explorer delivers them, into one digest: its history, its
   access log and every field of its [exec_outcome]. Beside the digest it
   keeps every field of the exploration's [Explore.stats]. A change to the
   explorer that reorders, adds or drops an execution, moves a step, or
   shifts one counter changes a row.

   An optimisation of the explorer keeps every row. Regenerate a row only
   for a deliberate, documented change of exploration order. *)

open Helpers
module Explore = Lineup_scheduler.Explore
module Exec_ctx = Lineup_runtime.Exec_ctx
module Memory_model = Lineup_runtime.Memory_model
module Registry = Lineup_conc.Registry
module Dekker = Lineup_conc.Dekker
open Lineup

let adapter name = (Registry.find name).Registry.adapter

(* Concurrent subjects: lock-free retries and yields, a timed lock with a
   demonic choice, blocking waits that can deadlock, and an asynchronous
   callback choice. The spin loop with fences is the Dekker litmus of the
   weak-memory rows. *)
let concurrent_subjects () =
  [
    ( adapter "ConcurrentStack",
      [ [ inv_int "Push" 1; inv "TryPop" ]; [ inv_int "Push" 2; inv "TryPop" ] ] );
    ( adapter "ConcurrentQueue (Pre: timed lock in TryDequeue)",
      [ [ inv_int "Enqueue" 200; inv "TryDequeue" ]; [ inv "TryDequeue"; inv "Count" ] ] );
    adapter "ManualResetEvent", [ [ inv "Wait" ]; [ inv "Set"; inv "Reset" ] ];
    adapter "CancellationTokenSource", [ [ inv "Cancel" ]; [ inv "IsCancellationRequested" ] ];
  ]

let litmus = [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

let serial_subjects () =
  [
    ( adapter "ConcurrentQueue",
      [
        [ inv_int "Enqueue" 200; inv "TryDequeue"; inv "Count" ];
        [ inv_int "Enqueue" 400; inv "TryDequeue"; inv "TryPeek" ];
        [ inv "TryDequeue"; inv "Count"; inv_int "Enqueue" 200 ];
      ] );
    ( adapter "SemaphoreSlim",
      [
        [ inv "Wait"; inv "Release"; inv "CurrentCount" ];
        [ inv "Release"; inv "Wait"; inv "TryWait" ];
        [ inv "Release"; inv "CurrentCount"; inv "Wait" ];
      ] );
  ]

let exec_end = function
  | Explore.All_finished -> "finished"
  | Explore.Deadlock ts -> "deadlock " ^ String.concat "," (List.map string_of_int ts)
  | Explore.Serial_stuck t -> "serial-stuck " ^ string_of_int t
  | Explore.Diverged -> "diverged"

(* One execution as a line: history, then every outcome field, then the
   access log. *)
let execution_line (r : Harness.run_result) =
  let o = r.outcome in
  Fmt.str "%a|%s|%d %d %d %d %d|%s|%b|%a" History.pp r.history (exec_end o.exec_end) o.steps
    o.preemptions o.yields o.flushes o.choice_points
    (String.concat ";"
       (List.map (fun (t, e) -> string_of_int t ^ ":" ^ Printexc.to_string e) o.errors))
    o.por_pruned
    Fmt.(list ~sep:(any ";") Exec_ctx.pp_entry)
    r.log

let stats_line (s : Explore.stats) =
  Fmt.str "ex=%d st=%d dl=%d dv=%d ss=%d md=%d pr=%d pe=%d y=%d cp=%d sk=%d bt=%d fl=%d %b"
    s.executions s.total_steps s.deadlocks s.divergences s.serial_stucks s.max_depth
    s.pruned_choices s.preemptions_spent s.yields s.choice_points s.sleep_set_skips
    s.backtrack_points s.flushes s.complete

(* A running digest over execution lines, in delivery order. *)
type fold = { mutable digest : Digest.t; mutable count : int }

let fresh () = { digest = Digest.string ""; count = 0 }

let absorb f line =
  f.digest <- Digest.string (f.digest ^ line);
  f.count <- f.count + 1

let on_history f (r : Harness.run_result) =
  absorb f (execution_line r);
  `Continue

let result f stats =
  Fmt.str "%s n=%d %s" (Digest.to_hex f.digest) f.count
    (String.concat " / " (List.map stats_line stats))

let explored config subjects =
  let f = fresh () in
  let stats =
    List.map
      (fun (adapter, columns) ->
        Harness.run_phase ~log:true config ~adapter ~test:(Test_matrix.make columns)
          ~on_history:(on_history f))
      subjects
  in
  result f stats

(* The frontier of every subject at depth 3, each partition explored on its
   own in frontier order; the warm-up's prefixes and statistics are folded
   in too. *)
let partitioned config subjects =
  let f = fresh () in
  let stats =
    List.concat_map
      (fun (adapter, columns) ->
        let test = Test_matrix.make columns in
        let frontier =
          Harness.split_phase config ~depth:3 ~adapter ~test ~on_history:(fun _ -> `Continue)
        in
        List.iter (fun p -> absorb f (Explore.prefix_to_string p)) frontier.Explore.prefixes;
        frontier.Explore.warmup
        :: List.map
             (fun prefix ->
               Harness.run_phase_from ~log:true config ~prefix ~adapter ~test
                 ~on_history:(on_history f))
             frontier.Explore.prefixes)
      subjects
  in
  result f [ List.fold_left Explore.merge_stats Explore.empty_stats stats ]

let walked config subjects =
  let f = fresh () in
  let rng = Random.State.make [| 7 |] in
  let stats =
    List.map
      (fun (adapter, columns) ->
        Harness.run_phase_random ~log:true config ~rng ~executions:150 ~adapter
          ~test:(Test_matrix.make columns) ~on_history:(on_history f))
      subjects
  in
  result f stats

let sc ?(por = false) pb = { Explore.default_config with preemption_bound = pb; por }

let weak memory = { (sc ~por:true (Some 0)) with memory }

let rows () =
  let conc = concurrent_subjects () in
  [
    "sc pb1", (fun () -> explored (sc (Some 1)) conc);
    "sc pb1 por", (fun () -> explored (sc ~por:true (Some 1)) conc);
    "sc pb2", (fun () -> explored (sc (Some 2)) conc);
    "sc pb2 por", (fun () -> explored (sc ~por:true (Some 2)) conc);
    "sc unbounded por", (fun () -> explored (sc ~por:true None) conc);
    "dekker tso pb0 por", (fun () -> explored (weak Memory_model.Tso) [ Dekker.fenced, litmus ]);
    "dekker pso pb0 por", (fun () -> explored (weak Memory_model.Pso) [ Dekker.fenced, litmus ]);
    "serial 3x3", (fun () -> explored Explore.serial_config (serial_subjects ()));
    "frontier depth 3", (fun () -> partitioned (sc ~por:true (Some 2)) conc);
    ( "random walk seed 7",
      fun () ->
        walked (sc (Some 2)) conc
        ^ " + "
        ^ walked { (sc (Some 1)) with memory = Memory_model.Tso } [ Dekker.fenced, litmus ] );
  ]

let expected =
  [
    ( "sc pb1",
      "21bd0e873ee03e21f59b65dbc780f109 n=1810 ex=472 st=7858 dl=0 dv=0 ss=0 md=19 pr=1472 pe=402 y=102 cp=5030 sk=0 bt=0 fl=0 true / ex=1118 st=24577 dl=0 dv=0 ss=0 md=24 pr=5653 pe=1048 y=0 cp=14657 sk=0 bt=0 fl=0 true / ex=178 st=3882 dl=42 dv=0 ss=0 md=28 pr=912 pe=160 y=0 cp=1911 sk=0 bt=0 fl=0 true / ex=42 st=344 dl=0 dv=0 ss=0 md=10 pr=53 pe=30 y=0 cp=206 sk=0 bt=0 fl=0 true" );
    ( "sc pb1 por",
      "4258fadf577325b9103c603c1c6477c2 n=1188 ex=292 st=5410 dl=0 dv=0 ss=0 md=19 pr=868 pe=222 y=38 cp=3144 sk=48 bt=0 fl=0 true / ex=780 st=17573 dl=0 dv=0 ss=0 md=24 pr=3816 pe=710 y=0 cp=10242 sk=22 bt=0 fl=0 true / ex=84 st=2094 dl=20 dv=0 ss=0 md=28 pr=544 pe=70 y=0 cp=825 sk=18 bt=0 fl=0 true / ex=32 st=280 dl=0 dv=0 ss=0 md=10 pr=33 pe=20 y=0 cp=156 sk=3 bt=0 fl=0 true" );
    ( "sc pb2",
      "d1205c65486a82696fcf4dbb4b393f09 n=9819 ex=1798 st=31042 dl=0 dv=0 ss=0 md=22 pr=3388 pe=3054 y=758 cp=22166 sk=0 bt=0 fl=0 true / ex=6856 st=151074 dl=0 dv=0 ss=0 md=26 pr=18818 pe=12524 y=0 cp=104582 sk=0 bt=0 fl=0 true / ex=1077 st=25522 dl=219 dv=0 ss=0 md=30 pr=3859 pe=1958 y=0 cp=15243 sk=0 bt=0 fl=0 true / ex=88 st=730 dl=0 dv=0 ss=0 md=10 pr=43 pe=122 y=0 cp=523 sk=0 bt=0 fl=0 true" );
    ( "sc pb2 por",
      "924804e7eb1e9581ab142af1007c2f69 n=4446 ex=736 st=14832 dl=0 dv=0 ss=0 md=22 pr=1270 pe=1110 y=234 cp=9036 sk=178 bt=0 fl=0 true / ex=3277 st=75103 dl=0 dv=0 ss=0 md=26 pr=8178 pe=5704 y=0 cp=50077 sk=155 bt=0 fl=0 true / ex=381 st=10360 dl=62 dv=0 ss=0 md=30 pr=1872 pe=664 y=0 cp=4980 sk=70 bt=0 fl=0 true / ex=52 st=450 dl=0 dv=0 ss=0 md=10 pr=22 pe=60 y=0 cp=299 sk=3 bt=0 fl=0 true" );
    ( "sc unbounded por",
      "a8a434a2ada41a060c555515cc14c153 n=1906 ex=498 st=10584 dl=0 dv=0 ss=0 md=25 pr=0 pe=1072 y=328 cp=7192 sk=116 bt=613 fl=0 true / ex=886 st=21414 dl=0 dv=0 ss=0 md=26 pr=0 pe=1706 y=0 cp=16199 sk=144 bt=907 fl=0 true / ex=494 st=12584 dl=45 dv=0 ss=0 md=32 pr=0 pe=1745 y=0 cp=9706 sk=10 bt=503 fl=0 true / ex=28 st=236 dl=0 dv=0 ss=0 md=10 pr=0 pe=20 y=0 cp=178 sk=1 bt=21 fl=0 true" );
    ( "dekker tso pb0 por",
      "7381f26a860b6007f2e7e9b0ae7a58d8 n=10589 ex=10589 st=496721 dl=0 dv=0 ss=0 md=52 pr=157200 pe=0 y=28132 cp=242397 sk=1592 bt=0 fl=84712 true" );
    ( "dekker pso pb0 por",
      "4edb5e4a1a8a8c4af52d3cd0250339d6 n=10535 ex=10535 st=494390 dl=0 dv=0 ss=0 md=52 pr=156680 pe=0 y=27993 cp=240971 sk=1591 bt=0 fl=84280 true" );
    ( "serial 3x3",
      "29c72c4d3f821e895f779fc2ff078221 n=2524 ex=1680 st=15120 dl=0 dv=0 ss=0 md=9 pr=0 pe=0 y=0 cp=12960 sk=0 bt=0 fl=0 true / ex=844 st=7203 dl=0 dv=0 ss=397 md=9 pr=0 pe=0 y=0 cp=6400 sk=0 bt=0 fl=0 true" );
    ( "frontier depth 3",
      "311dd1364d41353f97ed51e9b8d9c2af n=4530 ex=4530 st=102071 dl=70 dv=0 ss=0 md=30 pr=11572 pe=7673 y=234 cp=65126 sk=406 bt=0 fl=0 true" );
    ( "random walk seed 7",
      "302aa07defc7cf1ee9291909021f4637 n=600 ex=150 st=2529 dl=0 dv=0 ss=0 md=0 pr=450 pe=276 y=43 cp=1375 sk=0 bt=0 fl=0 false / ex=150 st=3344 dl=0 dv=0 ss=0 md=0 pr=946 pe=296 y=0 cp=1444 sk=0 bt=0 fl=0 false / ex=150 st=2727 dl=27 dv=0 ss=0 md=0 pr=758 pe=280 y=0 cp=1147 sk=0 bt=0 fl=0 false / ex=150 st=1228 dl=0 dv=0 ss=0 md=0 pr=90 pe=222 y=0 cp=753 sk=0 bt=0 fl=0 false + 82869a0a2323fd8f6d76b6a982946309 n=150 ex=150 st=5763 dl=0 dv=0 ss=0 md=0 pr=1633 pe=150 y=231 cp=2787 sk=0 bt=0 fl=1200 false" );
  ]

let tests =
  List.map
    (fun (label, run) ->
      test ("order: " ^ label) (fun () ->
          Alcotest.(check string) label
            (Option.value (List.assoc_opt label expected) ~default:"(unrecorded)")
            (run ())))
    (rows ())
