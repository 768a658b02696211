(* Table 2 of the paper: RandomCheck over every class.

   For each class/version row: a uniform random sample of rows×cols tests
   (paper: 100 tests of 3×3), preemption bound 2, and for each row we report
   — matching the paper's columns —
   phase-1 histories (avg/max), phase-1 time (avg/max), phase-2 pass/fail
   counts, average time of failing and passing testcases, the preemption
   bound, the root causes found, and the minimal failing dimensions. *)

open Bench_common
module Conc = Lineup_conc
module Explore = Lineup_scheduler.Explore
open Lineup

type row = {
  name : string;
  expected : Conc.Registry.expected;
  passed : int;
  failed : int;
  p1_hist_avg : float;
  p1_hist_max : int;
  p1_time_avg : float;
  p1_time_max : float;
  fail_time_avg : float option;
  pass_time_avg : float option;
  capped : int;  (* tests whose phase 2 hit the execution cap *)
  min_dims : string;
}

let average = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float (List.length l)
let avg_opt = function [] -> None | l -> Some (average l)

let run_row opts (e : Conc.Registry.entry) =
  let report =
    Random_check.run ~config:(check_config opts) ?metrics:(bench_metrics ()) ~seed:opts.seed
      ~samples:opts.samples
      ~draw:(random_draw e.adapter ~rows:opts.rows ~cols:opts.cols)
      e.adapter
  in
  let outcomes = report.Random_check.outcomes in
  let p1_hists = List.map (fun (o : Random_check.test_outcome) -> o.result.Check.phase1.Check.histories) outcomes in
  let p1_times = List.map (fun (o : Random_check.test_outcome) -> o.result.Check.phase1.Check.time) outcomes in
  let total_time (o : Random_check.test_outcome) =
    o.result.Check.phase1.Check.time
    +. match o.result.Check.phase2 with Some p -> p.Check.time | None -> 0.0
  in
  let failing, passing = List.partition (fun (o : Random_check.test_outcome) -> not (Check.passed o.result)) outcomes in
  let capped =
    List.length
      (List.filter
         (fun (o : Random_check.test_outcome) ->
           match o.result.Check.phase2 with
           | Some p -> not p.Check.stats.Explore.complete
           | None -> false)
         passing)
  in
  let min_dims =
    if not opts.minimize then
      match e.min_dims with Some (r, c) -> Fmt.str "%dx%d" r c | None -> "-"
    else begin
      (* recompute live from the entry's regression test *)
      match e.regression with
      | None -> "-"
      | Some test -> (
        match Minimize.reduce ~config:(check_config opts) e.adapter test with
        | r ->
          let rows, cols = Test_matrix.dims r.Minimize.test in
          Fmt.str "%dx%d" rows cols
        | exception Invalid_argument _ -> "-")
    end
  in
  {
    name = e.adapter.Adapter.name;
    expected = e.expected;
    passed = report.Random_check.passed;
    failed = report.Random_check.failed;
    p1_hist_avg = average (List.map float p1_hists);
    p1_hist_max = List.fold_left max 0 p1_hists;
    p1_time_avg = average p1_times;
    p1_time_max = List.fold_left Float.max 0.0 p1_times;
    fail_time_avg = avg_opt (List.map total_time failing);
    pass_time_avg = avg_opt (List.map total_time passing);
    capped;
    min_dims;
  }

let expected_tag = function
  | Conc.Registry.Pass -> "-"
  | Conc.Registry.Bug id -> id
  | Conc.Registry.Intentional_nondeterminism id -> id ^ " (nondet)"
  | Conc.Registry.Intentional_nonlinearizability id -> id ^ " (nonlin)"

let time_opt_str = function None -> "-" | Some t -> Fmt.str "%.2fs" t

let run opts =
  hr
    (Fmt.str
       "Table 2: RandomCheck, %d random %dx%d tests per class (PB=2, phase-2 cap %d executions)"
       opts.samples opts.rows opts.cols opts.cap);
  Fmt.pr "%-50s %5s %5s | %8s %6s | %8s %8s | %8s %8s | %6s %8s %s@." "Class" "pass" "FAIL"
    "p1 avg" "p1 max" "p1 t avg" "p1 t max" "t fail" "t pass" "capped" "min dim" "root cause";
  Fmt.pr "%s@." (String.make 150 '-');
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (e : Conc.Registry.entry) ->
      let row = run_row opts e in
      Fmt.pr "%-50s %5d %5d | %8.1f %6d | %7.3fs %7.3fs | %8s %8s | %6d %8s %s@." row.name
        row.passed row.failed row.p1_hist_avg row.p1_hist_max row.p1_time_avg row.p1_time_max
        (time_opt_str row.fail_time_avg) (time_opt_str row.pass_time_avg) row.capped
        row.min_dims (expected_tag row.expected))
    Conc.Registry.table2_rows;
  Fmt.pr "@.total wall time: %.1fs@." (Unix.gettimeofday () -. t0);
  Fmt.pr
    "Notes: 'capped' counts passing tests whose phase 2 hit the execution cap (the paper runs \
     phase 2 to exhaustion, spending minutes per test); failing tests stop at the first \
     violation, hence 't fail' << 't pass' — the paper's observation that testcases fail much \
     quicker than they pass.@."
