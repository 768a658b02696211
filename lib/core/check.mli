(** The two-phase check [Check(X, m)] of Fig. 5.

    Phase 1 enumerates the serial executions of the finite test [m] on
    implementation [X], synthesizing the candidate deterministic sequential
    specification: the full serial histories [A] and stuck serial histories
    [B]. If [A ∪ B] is nondeterministic, the check fails — no deterministic
    specification can describe [X] (Fig. 5, line 4).

    Phase 2 enumerates the concurrent executions and checks each full
    history for a serial witness in [A] and each stuck history against [B]
    per Definition 2. Any failure is a proof that [X] is not linearizable
    with respect to {e any} deterministic sequential specification
    (Theorem 5 — completeness: no false alarms).

    Phase 1 runs without preemption bounding, preserving the completeness
    guarantee even when phase 2 is bounded (Section 4.3). *)

(** A single-valued leftover of the retired [--membership] option: phase 2
    always decides with the observation search. It has no effect; it is
    kept only because the benchmark harness in [perf/] still sets it, and
    goes when that harness next changes. *)
type membership = Generic

type config = {
  phase1 : Lineup_scheduler.Explore.config;
  phase2 : Lineup_scheduler.Explore.config;
  classic_only : bool;
      (** check Definition 1 only: stuck phase-2 histories are not checked
          against [B] — the pre-generalization notion of Section 2.2, which
          misses erroneous blocking (used by the Section 5.5 comparison) *)
  dedup_histories : bool;
      (** skip the witness search for histories already seen in phase 2
          (sound: the verdict is a function of the history); on by default,
          benchmarked by the dedup ablation *)
  membership : membership;  (** no effect; see {!membership} *)
  phase2_domains : int option;
      (** [Some d]: fan phase 2 out over [d] domains by frontier splitting —
          a sequential warm-up enumerates the decision prefixes of length
          [phase2_frontier_depth], then each prefix subtree is explored as an
          independent partition with its own adapter instances and dedup
          table, merged deterministically in frontier order (the verdict,
          statistics and metrics are independent of [d]; see DESIGN.md).
          [None] (default): the same path at frontier depth 0 — one
          partition, the whole tree, on the calling domain. Note [Some 1]
          still splits at [phase2_frontier_depth] — per-partition dedup
          tables make its metrics differ slightly from [None]. *)
  phase2_frontier_depth : int;
      (** decision-prefix length of the frontier warm-up (default 4); only
          read when [phase2_domains] is set. Deeper frontiers give more,
          smaller partitions: better load balance, more warm-up work. *)
}

val default_config : config

(** [config_with ?preemption_bound ?max_executions ?classic_only
    ?phase2_domains ?frontier_depth ?por ?memory ()] derives a configuration
    from {!default_config}; [max_executions] bounds phase 2 only (per
    partition when the frontier path is active). [por] (default [false])
    enables dynamic partial-order reduction in phase 2; phase 1's serial
    enumeration is never reduced (completeness, §4.3). [memory] (default
    [Sc]) selects the simulated memory model of the phase-2 exploration
    ([--memory sc|tso|pso]): under [Tso]/[Pso] the explorer enumerates
    store-buffer behaviours (buffered writes, scheduler-chosen flush points)
    and linearizability is checked over them; phase 1 always synthesizes
    the specification under SC. *)
val config_with :
  ?preemption_bound:int option ->
  ?max_executions:int option ->
  ?classic_only:bool ->
  ?phase2_domains:int ->
  ?frontier_depth:int ->
  ?por:bool ->
  ?memory:Lineup_runtime.Memory_model.t ->
  unit ->
  config

val memory : config -> Lineup_runtime.Memory_model.t
(** The phase-2 memory model ([config.phase2.memory]). *)

type violation =
  | Nondeterministic of Lineup_history.Serial_history.t * Lineup_history.Serial_history.t
      (** two serial executions diverge after a common prefix ending in a
          call: the implementation is not deterministic *)
  | No_witness of Lineup_history.History.t
      (** a concurrent full history with no serial witness in [A] *)
  | Stuck_unjustified of Lineup_history.History.t * Lineup_history.Op.t
      (** a stuck concurrent history with a pending operation whose [H[e]]
          has no witness in [B] — erroneous blocking (Definition 2) *)
  | Thread_exception of { tid : int; message : string }
      (** an operation raised — not a linearizability verdict, but reported
          rather than swallowed *)

(** The outcome of a check. [Cancelled] means the run was abandoned before
    the exploration finished (the [cancelled] token fired) with no
    violation found so far: {e no} verdict about [X] — in particular it is
    not a pass. A violation found before the cancellation wins: the run
    reports [Fail]. *)
type verdict =
  | Pass
  | Fail of violation
  | Cancelled

type phase_report = {
  stats : Lineup_scheduler.Explore.stats;
  histories : int;  (** distinct histories observed *)
  time : float;  (** monotonic seconds *)
}

(** The rendered outcome of one extra analyzer attached to the phase-2
    exploration (see {!run}'s [analyzers]). *)
type analysis = {
  a_name : string;  (** the analyzer's {!Analyzer.S.name} *)
  a_render : string;  (** its deterministic findings, newline-terminated *)
  a_violation : bool;  (** whether the findings should fail a gate *)
  a_metrics : (string * int) list;
      (** its {!Analyzer.S.metrics} counters — the structured counterpart of
          [a_render] (e.g. the race analyzer's [("races", n)]) *)
}

type result = {
  verdict : verdict;
  observation : Observation.t;
  phase1 : phase_report;
  phase2 : phase_report option;  (** [None] when phase 1 did not complete *)
  analyses : analysis list;
      (** outcomes of the attached extra analyzers, in attachment order;
          [[]] when none were attached *)
}

val passed : result -> bool
(** [Pass] only — a cancelled run never counts as passing. *)

val failed : result -> bool
(** [Fail _] only. *)

val cancelled : result -> bool

val pp_violation : Format.formatter -> violation -> unit

(** [synthesize ?config adapter test] runs phase 1 only: enumerate the
    serial executions of [test] and build the observation set (the
    synthesized sequential specification). [Error] carries [Fail v] (the
    phase-1 violation: nondeterminism, or an operation exception) or
    [Cancelled] — never [Pass] — together with the partial phase report.

    [metrics], here and in {!run}, receives the structured counters of the
    observability layer (see README.md for the key schema): exploration
    totals per phase under [explore.phase1.*] / [explore.phase2.*], the
    phase-2 Line-Up counters under [analyze.lineup.*] (distinct histories,
    dedup hits, witness-search probes, stuck-justification checks), and
    run and verdict counts under [check.*]. Counters are plain increments
    outside the modeled runtime, so collection never perturbs schedule
    enumeration; wall-clock timings are excluded (they would break [-j]
    determinism) and are emitted on the opt-in {!Lineup_observe.Trace}
    stream instead. *)
val synthesize :
  ?config:config ->
  ?cancelled:(unit -> bool) ->
  ?metrics:Lineup_observe.Metrics.t ->
  Adapter.t ->
  Test_matrix.t ->
  (Observation.t * phase_report, verdict * phase_report) Stdlib.result

(** [run ?config ?cancelled ?observation adapter test] — the paper's
    [Check(X, m)]. When [observation] is supplied (e.g. loaded from an
    observation file of a previous run — §4.1: "the set of observed serial
    histories Z is recorded in a file"), phase 1 is skipped and the given
    set is used as the specification.

    [cancelled] (default: never) is polled at every execution boundary of
    both phases; once it returns [true] the exploration is abandoned at the
    next boundary and the result's verdict is {!Cancelled} (unless a
    violation was already found, which wins). Callers that discard
    cancelled siblings — the parallel work pool — test {!failed} for their
    stop condition; callers that surface the result must treat [Cancelled]
    as "no verdict", never as a pass.

    Phase 2 is one {!Pipeline.run}: a frontier of depth
    [config.phase2_frontier_depth] when [config.phase2_domains] is
    [Some d], depth 0 otherwise (see {!config}); the verdict, report and
    metrics are identical for every [d].

    [analyzers] attaches extra per-execution analyzers (the §5.6/§5.7
    comparison checkers) to the phase-2 exploration: the pipeline drives
    the Line-Up history check {e and} every attached analyzer over a
    single exploration, so each schedule is executed exactly once no
    matter how many checkers consume it; their outcomes are returned in
    [result.analyses]. The exploration only stops early when every
    analyzer is done — with accumulating analyzers attached it runs the
    full (budgeted) schedule space even after a Line-Up violation, so
    each analyzer's findings equal what its standalone run reports. If
    phase 1 fails, the attached analyzers still get their exploration
    (the comparison is meaningful regardless of the Line-Up verdict);
    only the Line-Up phase-2 check is skipped. *)
val run :
  ?config:config ->
  ?cancelled:(unit -> bool) ->
  ?metrics:Lineup_observe.Metrics.t ->
  ?observation:Observation.t ->
  ?analyzers:Analyzer.t list ->
  Adapter.t ->
  Test_matrix.t ->
  result

(** [phase1_failed ?metrics verdict phase1] is the result of a check that
    stopped in phase 1 — the [Error] of {!synthesize} — with the run and
    its verdict counted into [metrics] as {!run} counts them. *)
val phase1_failed : ?metrics:Lineup_observe.Metrics.t -> verdict -> phase_report -> result

(** [run_seq ?config ?domains ?metrics ?stop_at_first adapter tests] runs
    {!run} on each test of the lazy sequence [tests] and returns each test
    with its result, in sequence order, together with both phases'
    statistics of every returned check, merged in that order. It is the
    one fan-out behind [Random_check.run] and [Auto_check.run].

    [domains] (default [1]) spreads the checks over that many OCaml domains
    through {!Lineup_parallel.Pool.map_seq}, which pulls [tests] on the
    calling domain, one element per job, in sequence order. With
    [stop_at_first] (default [false]) the list ends at the first failing
    check; later checks in flight are cancelled and dropped. [metrics]
    receives the counters of the returned checks only. So the list, the
    statistics and the counters are the same for every [domains]. *)
val run_seq :
  ?config:config ->
  ?domains:int ->
  ?metrics:Lineup_observe.Metrics.t ->
  ?stop_at_first:bool ->
  Adapter.t ->
  Test_matrix.t Seq.t ->
  (Test_matrix.t * result) list * Lineup_scheduler.Explore.stats

(** {1 Phase-2 dedup}

    The table of distinct histories one phase-2 exploration has checked
    (see {!config}'s [dedup_histories]). Each history is hashed once, by
    the fingerprint that [histories_fingerprint] sums. That hash reads a
    bounded prefix of the history, so it only picks a bucket:
    [History.equal] decides. *)
module Distinct : sig
  type t

  val create : int -> t
  (** [create n]: an empty table sized for about [n] histories. *)

  val add : t -> Lineup_history.History.t -> int option
  (** [add seen h] records [h] and returns [Some fp], [fp] being [h]'s
      fingerprint, when no equal history was recorded before; [None]
      otherwise. *)
end

(** {1 Multi-process sharding}

    The building blocks of [lineup shard-server]/[shard-worker]
    (lib/shard): the three steps of {!Pipeline.run} with the Line-Up
    analyzer's state as data, so that a partition result can be marshaled
    across a process boundary or to a checkpoint file. The merge
    reproduces the in-process frontier path ({!run} with
    [phase2_domains = Some j]) byte-for-byte: same verdict, same report,
    same metrics registry, for any assignment of partitions to workers,
    any completion order, and any number of crash/resume cycles. *)

(** One frontier partition's completed phase-2 result. Contains no
    closures, channels or adapter state: safe to [Marshal]. *)
type p2_partition

val partition_index : p2_partition -> int
val partition_stop : p2_partition -> bool
(** the partition stopped the sweep: violation found or interrupted *)

val partition_executions : p2_partition -> int

(** [split_frontier ?config ?cancelled adapter test] is {!Pipeline.frontier}
    at depth [config.phase2_frontier_depth]: the frontier plus whether the
    warm-up was interrupted. *)
val split_frontier :
  ?config:config ->
  ?cancelled:(unit -> bool) ->
  Adapter.t ->
  Test_matrix.t ->
  Lineup_scheduler.Explore.frontier * bool

(** [run_partition ?config ?cancelled ~observation ~index ~prefix adapter
    test] is {!Pipeline.run_partition} with the Line-Up analyzer alone,
    returning its state as data. Deterministic given ([config],
    [observation], [test], [prefix]): a worker process computing this
    remotely produces the same value as the local domain would. *)
val run_partition :
  ?config:config ->
  ?cancelled:(unit -> bool) ->
  observation:Observation.t ->
  index:int ->
  prefix:Lineup_scheduler.Explore.prefix ->
  Adapter.t ->
  Test_matrix.t ->
  p2_partition

(** [ingest_phase1 ?metrics phase1] emits the phase-1 counters and trace
    event of a {!phase_report} — what {!synthesize} emits, re-emitted from
    a checkpoint by [--resume] so the final registry is byte-identical to
    an uninterrupted run. *)
val ingest_phase1 : ?metrics:Lineup_observe.Metrics.t -> phase_report -> unit

(** [merge_partitions ?metrics ?warmup_interrupted ~observation ~phase1
    ~frontier partitions] repacks the partition states for {!Pipeline.merge}
    and finishes the check exactly as {!run} does: same result, same
    metric keys and values as the frontier path. [partitions] may arrive
    in any order and may include partitions past the earliest stopping
    one (they are ignored, not trusted); duplicates must not be passed. *)
val merge_partitions :
  ?metrics:Lineup_observe.Metrics.t ->
  ?warmup_interrupted:bool ->
  observation:Observation.t ->
  phase1:phase_report ->
  frontier:Lineup_scheduler.Explore.frontier ->
  p2_partition list ->
  result
