(* The trace codec under its old name, for the benchmark harness in perf/,
   which changes only with the benchmark; it goes when that harness next
   changes. *)
include Lineup_history.Trace_event
