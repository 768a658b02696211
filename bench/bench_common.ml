(* Shared plumbing for the benchmark harness. *)

module H = Lineup_history
module Value = Lineup_value.Value
module Conc = Lineup_conc
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
open Lineup

(* Structured counters for the whole bench run (--metrics FILE). Collection
   is deterministic (see Lineup_observe.Metrics); the registry aggregates
   across every artifact that ran, so a sweep's metrics are the sums of its
   parts. [bench_metrics ()] is what artifact runners thread into the
   checker entry points — [None] unless --metrics was given. *)
let metrics_out : string option ref = ref None
let metrics_registry = Metrics.create ()
let bench_metrics () = if !metrics_out = None then None else Some metrics_registry

let write_metrics () =
  match !metrics_out with
  | None -> ()
  | Some path ->
    Metrics.write_file metrics_registry ~path;
    Fmt.pr "[bench] wrote metrics summary to %s@." path

(* Machine-readable per-artifact results (--json FILE). Each artifact runner
   may record rows; the file is the bench lane's CI artifact
   (BENCH_<sha>.json), so the schema is versioned and the rows are emitted
   in recording order to keep diffs stable. [reduction] is the
   unreduced/reduced execution ratio where the artifact measured one. *)
type bench_row = {
  row_section : string;
  row_class : string;
  row_config : string;  (* e.g. "pb=2" / "unbounded" *)
  row_wall_s : float;
  row_executions : int;
  row_executions_reduced : int option;
  row_reduction : float option;
  row_extras : (string * string) list;
      (* section-specific fields, values pre-rendered as JSON (schema
         lineup-bench/2: e.g. the shard lane's workers/speedup/throughput) *)
}

let json_out : string option ref = ref None
let bench_rows : bench_row list ref = ref []

let add_row ?executions_reduced ?reduction ?(extras = []) ~section ~cls ~config ~wall_s
    ~executions () =
  bench_rows :=
    {
      row_section = section;
      row_class = cls;
      row_config = config;
      row_wall_s = wall_s;
      row_executions = executions;
      row_executions_reduced = executions_reduced;
      row_reduction = reduction;
      row_extras = extras;
    }
    :: !bench_rows

let write_json ~total_wall_s =
  match !json_out with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 4096 in
    let row r =
      Printf.bprintf buf
        "    {\"section\": %S, \"class\": %S, \"config\": %S, \"wall_s\": %.3f, \
         \"executions\": %d"
        r.row_section r.row_class r.row_config r.row_wall_s r.row_executions;
      (match r.row_executions_reduced with
       | Some n -> Printf.bprintf buf ", \"executions_reduced\": %d" n
       | None -> ());
      (match r.row_reduction with
       | Some f -> Printf.bprintf buf ", \"reduction\": %.2f" f
       | None -> ());
      List.iter (fun (k, v) -> Printf.bprintf buf ", %S: %s" k v) r.row_extras;
      Buffer.add_string buf "}"
    in
    Buffer.add_string buf "{\n  \"schema\": \"lineup-bench/2\",\n";
    Printf.bprintf buf "  \"total_wall_s\": %.1f,\n" total_wall_s;
    Buffer.add_string buf "  \"results\": [\n";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string buf ",\n";
        row r)
      (List.rev !bench_rows);
    Buffer.add_string buf "\n  ]\n}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Fmt.pr "[bench] wrote results to %s@." path

type options = {
  samples : int;  (* RandomCheck sample size per class (paper: 100) *)
  rows : int;  (* operations per thread (paper: 3) *)
  cols : int;  (* threads (paper: 3) *)
  cap : int;  (* phase-2 executions cap per test (the paper ran uncapped,
                 spending minutes per test; see EXPERIMENTS.md) *)
  seed : int;
  minimize : bool;  (* recompute minimal failing dimensions live *)
}

let default_options =
  { samples = 6; rows = 3; cols = 3; cap = 1500; seed = 42; minimize = false }

let paper_options =
  { samples = 100; rows = 3; cols = 3; cap = 50_000; seed = 42; minimize = true }

(* Does the observation set hold a witness for [h]: Definition 1 on a
   complete history, Definition 2 on a stuck one? *)
let observed obs h =
  let decide q =
    if Option.is_some (Observation.witness obs q) then Lineup_spec.Spec.Accept
    else Lineup_spec.Spec.Reject
  in
  if H.History.is_stuck h then Option.is_none (Lineup_spec.Spec.first_unjustified decide h)
  else decide h = Lineup_spec.Spec.Accept

let inv ?arg name = H.Invocation.make ?arg name
let inv_int name n = H.Invocation.make ~arg:(Value.int n) name

(* Fig. 8's draw: one uniform [rows]x[cols] test over the adapter's
   universe, as Table 2 and [lineup random] draw it. *)
let random_draw (adapter : Adapter.t) ~rows ~cols rng =
  Test_matrix.random ~rng ~invocations:adapter.Adapter.universe ~rows ~cols ()

let check_config opts =
  Check.config_with ~max_executions:(Some opts.cap) ()

let hr title =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "============================================================@.@."
