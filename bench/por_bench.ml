(* The --por artifact: dynamic partial-order reduction factors per
   collection class, with the equivalence the reduction must preserve
   asserted inline (same verdict, same distinct-history count). Two
   configurations per class: the default preemption bound (where the
   cost-aware sleep sets apply) and unbounded (where the full lazy DPOR
   applies and the reductions are much larger). Rows land in the --json
   results file; the CI bench lane uploads it as BENCH_<sha>.json.
   test/test_por.ml asserts the default-bound rows: at least a 2x
   reduction on three classes. *)

open Bench_common
module Conc = Lineup_conc
module Explore = Lineup_scheduler.Explore
open Lineup

(* Fixed 2x2 tests: deterministic, small enough to explore unbounded, big
   enough that the schedule tree is non-trivial. *)
let cases =
  [
    "Counter", [ [ inv "Inc"; inv "Get" ]; [ inv "Inc"; inv "Get" ] ];
    ( "ConcurrentQueue",
      [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv_int "Enqueue" 2; inv "TryDequeue" ] ] );
    "ConcurrentStack", [ [ inv_int "Push" 1; inv "TryPop" ]; [ inv_int "Push" 2; inv "TryPop" ] ];
    "ConcurrentBag", [ [ inv_int "Add" 1; inv "TryTake" ]; [ inv_int "Add" 2; inv "TryTake" ] ];
    ( "MichaelScottQueue",
      [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv_int "Enqueue" 2; inv "TryDequeue" ] ] );
    ( "SegmentQueue",
      [ [ inv_int "Enqueue" 1; inv "TryDequeue" ]; [ inv_int "Enqueue" 2; inv "TryDequeue" ] ] );
  ]

let verdict_label (r : Check.result) =
  match r.Check.verdict with
  | Check.Pass -> "pass"
  | Check.Fail _ -> "fail"
  | Check.Cancelled -> "cancelled"

let run opts =
  hr "Partial-order reduction: phase-2 executions with and without --por";
  Fmt.pr "%-20s %-10s %10s %10s %8s %6s %6s@." "Class" "bound" "exec" "exec(por)" "factor"
    "hist" "equal";
  Fmt.pr "%s@." (String.make 80 '-');
  let cap = Some (max opts.cap 500_000) in
  List.iter
    (fun (name, columns) ->
      let entry = Conc.Registry.find name in
      let test = Test_matrix.make columns in
      let measure ~pb ~por =
        let config =
          Check.config_with ~preemption_bound:pb ~max_executions:cap ~por ()
        in
        let t0 = Unix.gettimeofday () in
        let r = Check.run ~config ?metrics:(bench_metrics ()) entry.Conc.Registry.adapter test in
        let wall = Unix.gettimeofday () -. t0 in
        let execs, hists, complete =
          match r.Check.phase2 with
          | Some p -> p.Check.stats.Explore.executions, p.Check.histories, p.Check.stats.Explore.complete
          | None -> 0, 0, false
        in
        r, execs, hists, complete, wall
      in
      List.iter
        (fun (label, pb) ->
          let r_off, e_off, h_off, c_off, w_off = measure ~pb ~por:false in
          let r_on, e_on, h_on, c_on, w_on = measure ~pb ~por:true in
          (* An execution-capped baseline truncates its history set; the
             comparison is only meaningful when both explorations finished. *)
          let equal =
            if not (c_off && c_on) then "cap"
            else if verdict_label r_off = verdict_label r_on && h_off = h_on then "yes"
            else "NO"
          in
          let factor = if e_on > 0 then float_of_int e_off /. float_of_int e_on else 1.0 in
          Fmt.pr "%-20s %-10s %10d %10d %7.1fx %6d %6s@." name label e_off e_on factor h_off
            equal;
          add_row ~section:"por" ~cls:name ~config:label ~wall_s:(w_off +. w_on)
            ~executions:e_off ~executions_reduced:e_on ~reduction:factor ())
        [ "pb=default", Explore.default_config.Explore.preemption_bound; "unbounded", None ])
    cases;
  Fmt.pr
    "@.The reduction must never change what is observed: 'equal' compares the verdict and \
     the distinct-history count per row (the CI equivalence lane additionally compares \
     history fingerprints).@."
