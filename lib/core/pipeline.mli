(** One exploration, N analyzers.

    The analysis pipeline drives a set of {!Analyzer}s over a {e single}
    exploration of a test's schedule tree: each explored schedule is
    executed exactly once and every attached analyzer consumes it. This is
    how the paper's §5.6 comparison runs its checkers "on the same
    executions" Line-Up explores — and it is what makes [compare] pay one
    exploration instead of one per checker.

    Phase 2 has one path in three steps: {!frontier} splits the schedule
    tree into decision-prefix partitions, {!run_partition} explores one of
    them into fresh analyzer states, and {!merge} folds the results in
    frontier order. {!run} chains them in process; the shard server chains
    them across processes (through {!Check}'s sharding functions).

    Determinism contract:
    - the exploration is the canonical enumeration, independent of the
      analyzer set (analyzers run between executions, outside the modeled
      runtime — they cannot perturb the schedule enumeration);
    - the partitions' union is the schedule set
      ({!Lineup_scheduler.Explore.split}), and {!merge} folds their states
      in frontier order — so renders, violations and metrics depend on the
      frontier depth, never on the domain count, completion order or
      process layout;
    - access logging is enabled iff some attached analyzer [needs_log],
      scoped exception-safely per exploring domain
      ({!Lineup_runtime.Exec_ctx.with_logging}). *)

type report = {
  packs : Analyzer.packed list;
      (** final (merged) analyzer states, in attachment order *)
  stats : Lineup_scheduler.Explore.stats;  (** exploration totals, warm-up included *)
  interrupted : bool;  (** the [cancelled] token fired before completion *)
}

(** One explored partition. *)
type partition = {
  pt_index : int;  (** position of the partition's prefix in the frontier *)
  pt_stats : Lineup_scheduler.Explore.stats;
  pt_packs : Analyzer.packed list;  (** its analyzer states, in attachment order *)
  pt_all_done : bool;  (** every analyzer reported [`Done] *)
  pt_interrupted : bool;  (** the [cancelled] token fired *)
}

(** [frontier ?cancelled config ~depth ~adapter ~test] runs the
    depth-[depth] warm-up and returns the frontier plus whether
    [cancelled] interrupted it. Depth 0 runs nothing: one empty prefix. *)
val frontier :
  ?cancelled:(unit -> bool) ->
  Lineup_scheduler.Explore.config ->
  depth:int ->
  adapter:Adapter.t ->
  test:Test_matrix.t ->
  Lineup_scheduler.Explore.frontier * bool

(** [run_partition ?cancelled config ~analyzers ~adapter ~test ~index
    ~prefix] explores the subtree below [prefix], stepping fresh states of
    every analyzer, until every analyzer is done, the subtree is exhausted
    or [cancelled] fires. Deterministic given its arguments: a worker
    process computes the states a local domain would. Emits one
    [pipeline.partition] trace event. *)
val run_partition :
  ?cancelled:(unit -> bool) ->
  Lineup_scheduler.Explore.config ->
  analyzers:Analyzer.t list ->
  adapter:Adapter.t ->
  test:Test_matrix.t ->
  index:int ->
  prefix:Lineup_scheduler.Explore.prefix ->
  partition

(** [merge ?metrics ~warmup_interrupted ~analyzers frontier partitions]
    sorts [partitions] by index, keeps those up to and including the
    earliest stopping one ([Pool.map_seq]'s prefix rule), and folds their
    states in frontier order — fresh [analyzers] states when none is kept,
    as when the warm-up was interrupted. Any order and any superset of the
    kept partitions merge identically; duplicates must not be passed.

    [metrics] receives [explore.phase2.*] (the warm-up, [partitions],
    [warmup_executions], then each kept partition and its
    [partition.NNN.executions]) and each analyzer's [analyze.<name>.*]
    counters. Nothing else emits these keys. *)
val merge :
  ?metrics:Lineup_observe.Metrics.t ->
  warmup_interrupted:bool ->
  analyzers:Analyzer.t list ->
  Lineup_scheduler.Explore.frontier ->
  partition list ->
  report

(** [run config ~analyzers ~adapter ~test ()] is {!frontier}, one
    {!run_partition} per prefix through [Pool.map_seq] (a partition that
    stops cancels later ones), then {!merge}. The config's execution
    budget applies per partition.

    [domains]: fan the partitions out over that many domains, splitting at
    depth [frontier_depth] (default 4). Without [domains] the frontier has
    depth 0: one partition, the whole tree, on the calling domain.

    Raises [Invalid_argument] when [analyzers] is empty. *)
val run :
  ?domains:int ->
  ?frontier_depth:int ->
  ?cancelled:(unit -> bool) ->
  ?metrics:Lineup_observe.Metrics.t ->
  Lineup_scheduler.Explore.config ->
  analyzers:Analyzer.t list ->
  adapter:Adapter.t ->
  test:Test_matrix.t ->
  unit ->
  report

val add_explore_stats :
  Lineup_observe.Metrics.t -> prefix:string -> Lineup_scheduler.Explore.stats -> unit
(** Ingest exploration statistics as [explore.<prefix>.*] counters —
    shared with {!Check}'s phase-1 reporting. *)
