(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation. See DESIGN.md for the experiment index and EXPERIMENTS.md for
   paper-vs-measured results.

   Usage:
     dune exec bench/main.exe                 -- run everything (CI scale)
     dune exec bench/main.exe -- --table 2    -- one artifact
     dune exec bench/main.exe -- --paper      -- paper-scale parameters
     dune exec bench/main.exe -- --samples 50 --cap 10000 --minimize *)

open Bench_common

type selection = {
  mutable tables : int list;
  mutable figures : int list;
  mutable sections : string list;
  mutable ablations : string list;
  mutable bechamel : bool;
  mutable all : bool;
}

let () =
  let sel =
    { tables = []; figures = []; sections = []; ablations = []; bechamel = false; all = true }
  in
  let opts = ref default_options in
  let select f = fun v -> sel.all <- false; f v in
  let args =
    [
      "--table", Arg.Int (select (fun n -> sel.tables <- n :: sel.tables)), "N  run Table N (1|2)";
      ( "--figure",
        Arg.Int (select (fun n -> sel.figures <- n :: sel.figures)),
        "N  run Figure N (1|7|9)" );
      ( "--section",
        Arg.String (select (fun s -> sel.sections <- s :: sel.sections)),
        "S  run Section S (5.5|5.6|5.7|parallel|por|shard|monitor|memory)" );
      ( "--ablation",
        Arg.String (select (fun s -> sel.ablations <- s :: sel.ablations)),
        "A  run ablation A (pb|sampling|stress|phase1|icb|dedup)" );
      "--bechamel", Arg.Unit (select (fun () -> sel.bechamel <- true)), "  bechamel micro-benchmarks";
      ( "--samples",
        Arg.Int (fun n -> opts := { !opts with samples = n }),
        "N  RandomCheck sample size per class (default 6; paper 100)" );
      "--rows", Arg.Int (fun n -> opts := { !opts with rows = n }), "N  operations per thread (default 3)";
      "--cols", Arg.Int (fun n -> opts := { !opts with cols = n }), "N  threads (default 3)";
      ( "--cap",
        Arg.Int (fun n -> opts := { !opts with cap = n }),
        "N  phase-2 executions cap per test (default 1500)" );
      "--seed", Arg.Int (fun n -> opts := { !opts with seed = n }), "N  PRNG seed (default 42)";
      ( "--minimize",
        Arg.Unit (fun () -> opts := { !opts with minimize = true }),
        "  recompute minimal failing dimensions live" );
      ( "--paper",
        Arg.Unit (fun () -> opts := paper_options),
        "  paper-scale parameters (100 samples, 50k cap — slow)" );
      ( "--metrics",
        Arg.String (fun f -> metrics_out := Some f),
        "FILE  write the aggregated JSON metrics summary to FILE" );
      ( "--json",
        Arg.String (fun f -> json_out := Some f),
        "FILE  write machine-readable per-artifact results to FILE (lineup-bench/2)" );
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "lineup benchmarks";
  let opts = !opts in
  let want_table n = sel.all || List.mem n sel.tables in
  let want_figure n = sel.all || List.mem n sel.figures in
  let want_section s = sel.all || List.mem s sel.sections in
  let want_ablation s = sel.all || List.mem s sel.ablations in
  let t0 = Unix.gettimeofday () in
  if want_table 1 then Table1.run ();
  if want_figure 1 then Figures.fig1 opts;
  if want_figure 7 then Figures.fig7 opts;
  if want_figure 9 then Figures.fig9 opts;
  if want_table 2 then Table2.run opts;
  if want_section "5.5" then Sections.s55 opts;
  if want_section "5.6" then Sections.s56 opts;
  if want_section "5.7" then Sections.s57 opts;
  if want_section "parallel" then Parallel_scaling.run opts;
  if want_section "por" then Por_bench.run opts;
  if want_section "shard" then Shard_bench.run opts;
  if want_section "monitor" then Monitor_bench.run opts;
  if want_section "memory" then Memory_bench.run opts;
  if want_ablation "pb" then Ablations.pb_sweep opts;
  if want_ablation "sampling" then Ablations.sampling opts;
  if want_ablation "stress" then Ablations.systematic_vs_stress opts;
  if want_ablation "phase1" then Ablations.phase1_cost opts;
  if want_ablation "icb" then Ablations.icb opts;
  if want_ablation "dedup" then Ablations.dedup opts;
  if sel.all || sel.bechamel then Bechamel_bench.run ();
  write_metrics ();
  let total = Unix.gettimeofday () -. t0 in
  write_json ~total_wall_s:total;
  Fmt.pr "@.[bench] total wall time: %.1fs@." total
