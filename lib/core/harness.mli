(** Driving a finite test against an adapter under the model checker.

    Each explored execution creates a fresh instance, runs the [init]
    sequence single-threaded, then runs one thread per test column; the
    harness records the call and return events (with a scheduling point at
    each operation boundary) and hands the resulting history — full or stuck
    — to the caller. The [final] sequence, if any, runs single-threaded
    after all test threads complete and is recorded as operations of an
    extra observer thread. *)

type run_result = {
  history : Lineup_history.History.t;
  outcome : Lineup_scheduler.Explore.exec_outcome;
  log : Lineup_runtime.Exec_ctx.entry list;
      (** the shared-access log of the execution; empty unless
          [Exec_ctx.set_logging true] *)
}

(** [run_phase cfg ~adapter ~test ~on_history] explores the schedules of
    [test] under [cfg] and reports each execution's history. Returning
    [`Stop] aborts the exploration.

    [log] (here, in {!run_phase_from} and in {!run_phase_random}): scope
    the shared-access logging flag of {!Lineup_runtime.Exec_ctx} around
    the exploration — [~log:true] enables it, [~log:false] disables it,
    and either way the previous setting is restored on return {e and} on
    exception. When omitted the flag is left untouched. The analysis
    pipeline passes [~log:true] exactly when some attached analyzer reads
    the access log. *)
val run_phase :
  ?log:bool ->
  Lineup_scheduler.Explore.config ->
  adapter:Adapter.t ->
  test:Test_matrix.t ->
  on_history:(run_result -> [ `Continue | `Stop ]) ->
  Lineup_scheduler.Explore.stats

(** [split_phase cfg ~depth ~adapter ~test ~on_history] runs the frontier
    warm-up of {!Lineup_scheduler.Explore.split} under the test harness:
    one full execution per depth-[depth] decision prefix, histories handed
    to [on_history] (return [`Stop] to abandon the warm-up, e.g. on
    cancellation). The returned prefixes partition the schedule tree; each
    is meant to be explored by {!run_phase_from}, possibly on another
    domain with its own adapter instances. *)
val split_phase :
  Lineup_scheduler.Explore.config ->
  depth:int ->
  adapter:Adapter.t ->
  test:Test_matrix.t ->
  on_history:(run_result -> [ `Continue | `Stop ]) ->
  Lineup_scheduler.Explore.frontier

(** [run_phase_from cfg ~prefix ~adapter ~test ~on_history] explores one
    frontier partition: replays [prefix] frozen and enumerates the subtree
    below it (see {!Lineup_scheduler.Explore.explore_from}). *)
val run_phase_from :
  ?log:bool ->
  Lineup_scheduler.Explore.config ->
  prefix:Lineup_scheduler.Explore.prefix ->
  adapter:Adapter.t ->
  test:Test_matrix.t ->
  on_history:(run_result -> [ `Continue | `Stop ]) ->
  Lineup_scheduler.Explore.stats

(** Like {!run_phase} but with uniformly random scheduling decisions instead
    of systematic enumeration — the stress-testing baseline ("simple runtime
    monitoring is not sufficient", §4). *)
val run_phase_random :
  ?log:bool ->
  Lineup_scheduler.Explore.config ->
  rng:Random.State.t ->
  executions:int ->
  adapter:Adapter.t ->
  test:Test_matrix.t ->
  on_history:(run_result -> [ `Continue | `Stop ]) ->
  Lineup_scheduler.Explore.stats

(** The thread id used for [final]-sequence operations: the number of test
    columns. *)
val observer_tid : Test_matrix.t -> int
