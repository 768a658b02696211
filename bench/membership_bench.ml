(* The --section membership artifact: phase-2 membership decision time,
   generic observation witness search vs the engine route of
   --membership auto (each complete history fed whole to the engine of its
   class: the queue/stack monitors, the per-key set/dictionary engine), on
   the same distinct history set.

   The exploration is shared: each class's test is explored once and its
   distinct phase-2 histories collected, then both decision procedures are
   timed over that fixed set (with repetition calibrated so the faster side
   is still measurable). This isolates exactly what --membership changes —
   the enumeration is identical by construction, so end-to-end wall clock
   dilutes the effect with harness time. Verdict agreement is asserted
   on every history before any timing; rows land in the --json results file
   (BENCH_<sha>.json), where the CI bench lane requires reduction >= 10 on
   at least three collection classes. *)

open Bench_common
module History = Lineup_history.History
module Spec = Lineup_spec.Spec
module Engine = Lineup_monitor.Engine
module Explore = Lineup_scheduler.Explore
open Lineup

(* 3x3 tests: large enough that the generic witness search has real work
   per history (the paper's default test dimension). *)
let cases =
  [
    ( "ConcurrentQueue",
      [
        [ inv_int "Enqueue" 1; inv "TryDequeue"; inv_int "Enqueue" 2 ];
        [ inv_int "Enqueue" 3; inv "TryDequeue"; inv "TryDequeue" ];
        [ inv_int "Enqueue" 4; inv "TryDequeue"; inv_int "Enqueue" 5 ];
      ] );
    ( "ConcurrentStack",
      [
        [ inv_int "Push" 1; inv "TryPop"; inv_int "Push" 2 ];
        [ inv_int "Push" 3; inv "TryPop"; inv "TryPop" ];
        [ inv_int "Push" 4; inv "TryPop"; inv_int "Push" 5 ];
      ] );
    ( "LazyListSet",
      [
        [ inv_int "Add" 10; inv_int "Remove" 10; inv_int "Contains" 10 ];
        [ inv_int "Add" 15; inv_int "Remove" 15; inv_int "Contains" 15 ];
        [ inv_int "Add" 10; inv_int "Contains" 15; inv_int "Remove" 10 ];
      ] );
    ( "ConcurrentDictionary",
      [
        [ inv_int "TryAdd" 10; inv_int "TryRemove" 10; inv_int "TryGet" 10 ];
        [ inv_int "Set" 20; inv_int "TryUpdate" 20; inv_int "TryGet" 20 ];
        [ inv_int "TryAdd" 20; inv_int "ContainsKey" 10; inv_int "TryRemove" 20 ];
      ] );
    ( "MichaelScottQueue",
      [
        [ inv_int "Enqueue" 1; inv "TryDequeue"; inv_int "Enqueue" 2 ];
        [ inv_int "Enqueue" 3; inv "TryDequeue"; inv "TryDequeue" ];
        [ inv_int "Enqueue" 4; inv "TryDequeue"; inv_int "Enqueue" 5 ];
      ] );
  ]

let distinct_histories adapter test ~cap =
  let seen = Hashtbl.create 256 in
  let histories = ref [] in
  let config = { Explore.default_config with Explore.max_executions = Some cap } in
  let _ =
    Harness.run_phase config ~adapter ~test ~on_history:(fun r ->
        let h = r.Harness.history in
        let key = History.events h, History.is_stuck h in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          histories := h :: !histories
        end;
        `Continue)
  in
  List.rev !histories

(* accept/reject per history, spec side — a stuck history and an
   Unsupported go to the generic search, exactly as --membership auto does
   in phase 2 (these tests have no init sequence) *)
let spec_decide spec obs h =
  if History.is_stuck h then observed obs h
  else
    match Engine.decide ~spec h with
    | Spec.Accept -> true
    | Spec.Reject -> false
    | Spec.Unsupported _ -> observed obs h

let time_reps f reps =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  Unix.gettimeofday () -. t0

let run opts =
  hr "Membership: generic witness search vs the engine route";
  Fmt.pr "%-22s %6s %6s %12s %12s %9s@." "Class" "hist" "reps" "generic(s)" "engine(s)"
    "speedup";
  Fmt.pr "%s@." (String.make 80 '-');
  List.iter
    (fun (name, columns) ->
      let entry = Conc.Registry.find name in
      let adapter = entry.Conc.Registry.adapter in
      let test = Test_matrix.make columns in
      match adapter.Adapter.spec with
      | None -> Fmt.pr "%-22s (no declared spec — skipped)@." name
      | Some packed -> (
        match Check.synthesize adapter test with
        | Error _ -> Fmt.pr "%-22s (phase 1 failed — skipped)@." name
        | Ok (obs, _) ->
          let histories = distinct_histories adapter test ~cap:opts.cap in
          let n = List.length histories in
          (* verdicts must agree history-by-history before any timing *)
          List.iter
            (fun h ->
              if observed obs h <> spec_decide packed obs h then
                Fmt.failwith "membership: the routes disagree on a %s history:@ %a" name
                  History.pp h)
            histories;
          (* calibrate repetitions on the generic side so both measurements
             are well above timer resolution *)
          let reps =
            let t1 =
              time_reps (fun () -> List.iter (fun h -> ignore (observed obs h)) histories) 1
            in
            max 2 (min 200 (int_of_float (0.3 /. (t1 +. 1e-9))))
          in
          let t_gen =
            time_reps (fun () -> List.iter (fun h -> ignore (observed obs h)) histories) reps
          in
          let t_spec =
            time_reps (fun () -> List.iter (fun h -> ignore (spec_decide packed obs h)) histories) reps
          in
          let speedup = t_gen /. (t_spec +. 1e-9) in
          Fmt.pr "%-22s %6d %6d %12.4f %12.4f %8.1fx@." name n reps t_gen t_spec speedup;
          add_row ~section:"membership" ~cls:name ~config:"generic" ~wall_s:t_gen
            ~executions:(n * reps) ();
          (* "monitor" is the label the CI bench floor selects *)
          add_row ~section:"membership" ~cls:name ~config:"monitor" ~wall_s:t_spec
            ~executions:(n * reps) ~reduction:speedup ()))
    cases;
  Fmt.pr
    "@.Both sides decide the same distinct phase-2 history set (the exploration is shared), \
     with equal verdicts on every history. The CI bench lane requires speedup >= 10 \
     on at least three collection classes; the membership equivalence rows of \
     test/test_goldens.ml separately pin end-to-end verdict and fingerprint equality of \
     --membership generic vs auto.@."
