(* The --memory artifact: the Dekker/Peterson store→load litmus under
   `--memory sc/tso/pso`, fenced and fence-free. The point of the table is
   the contrast: the fence-free protocol passes an exhaustive SC
   exploration (mutual exclusion holds in every SC interleaving — the bug
   is provably invisible to an SC checker) and fails under both weak
   models, while the fully fenced variant passes everywhere. Executions
   and flush counts show what the weak search pays for that coverage.
   Rows land in the --json results file (BENCH_<sha>.json).

   Both weak configurations run at preemption bound 1 with --por, a
   budget the test suite also uses: the seeded bug shows at any bound
   (even 0), while exhausting the fenced protocol at the default bound
   takes ~20 s under tso (619k executions; every spin iteration is a
   choice point). Under a bound, --por explores flush placement lazily —
   a thread step sleeps across the flushes it commutes with — so the
   fenced weak rows take ~17.5x the sc row's executions (113k);
   test/test_memory.ml asserts this matrix, with at most 25x. *)

open Bench_common
module Explore = Lineup_scheduler.Explore
module Memory_model = Lineup_runtime.Memory_model
module Metrics = Lineup_observe.Metrics
module Conc = Lineup_conc
open Lineup

let litmus = [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

let verdict_label (r : Check.result) =
  match r.Check.verdict with
  | Check.Pass -> "pass"
  | Check.Fail _ -> "fail"
  | Check.Cancelled -> "cancelled"

let run _opts =
  hr "Relaxed memory: the Dekker litmus under --memory sc/tso/pso (pb=1, --por)";
  Fmt.pr "%-28s %-6s %-8s %12s %10s %8s@." "Class" "model" "verdict" "executions" "flushes"
    "wall";
  Fmt.pr "%s@." (String.make 78 '-');
  let test = Test_matrix.make litmus in
  List.iter
    (fun (cls, adapter) ->
      List.iter
        (fun memory ->
          let m = Metrics.create () in
          let config =
            Check.config_with ~preemption_bound:(Some 1) ~por:true ~memory ()
          in
          let t0 = Unix.gettimeofday () in
          let r = Check.run ~config ~metrics:m adapter test in
          let wall = Unix.gettimeofday () -. t0 in
          let execs =
            match r.Check.phase2 with
            | Some p -> p.Check.stats.Explore.executions
            | None -> 0
          in
          let flushes = Metrics.get m "explore.phase2.flushes" in
          let model = Memory_model.to_string memory in
          Fmt.pr "%-28s %-6s %-8s %12d %10d %7.1fs@." cls model (verdict_label r) execs
            flushes wall;
          add_row ~section:"memory" ~cls ~config:model ~wall_s:wall ~executions:execs
            ~extras:
              [
                "verdict", Printf.sprintf "%S" (verdict_label r);
                "flushes", string_of_int flushes;
              ]
            ())
        [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ])
    [
      "DekkerCounter", Conc.Dekker.fenced;
      "DekkerCounter (fence-free)", Conc.Dekker.fence_free;
    ];
  Fmt.pr
    "@.The fence-free rows are the litmus: pass under sc (exhaustively — the bug cannot \
     manifest), fail under tso and pso. Weak failing runs stop at the first violation, so \
     their execution counts are small.@."
