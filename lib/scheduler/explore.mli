(** A stateless model checker for programs written against
    [Lineup_runtime.Rt] — the substrate the paper obtains from CHESS
    (Musuvathi et al., OSDI 2008).

    The explorer runs the program to completion under a deterministic
    cooperative scheduler, records the sequence of scheduling decisions
    (thread choices at scheduling points, value choices at demonic [Choose]
    points) together with their untried alternatives, and backtracks by
    re-executing from scratch along a mutated decision prefix — no state
    capture, exactly CHESS's architecture.

    Features mirrored from CHESS:
    - {e exhaustive} depth-first enumeration of schedules;
    - {e preemption bounding} (Musuvathi & Qadeer, PLDI 2007): a context
      switch away from a thread suspended at a shared-memory access counts
      against the bound; switches at operation boundaries, yields, blocks and
      thread exits are free. Phase 1 of Line-Up runs serial mode, where the
      only scheduling points are operation boundaries, so it is unaffected by
      the bound — preserving the paper's completeness guarantee (§4.3);
    - {e fair scheduling} (Musuvathi & Qadeer, PLDI 2008, approximated): a
      thread that performed [Rt.yield] (a spin-loop iteration) is not
      scheduled again until some other enabled thread has run;
    - {e deadlock detection}: blocked threads are disabled, so an execution
      with no enabled threads is a deadlock — reported as a stuck execution;
    - a per-execution step budget backstops genuine divergence, which is
      classified as stuck (the paper folds livelock and diverging loops into
      stuck histories, §2.3).

    Beyond CHESS, the explorer implements {e dynamic partial-order
    reduction} (Flanagan & Godefroid, POPL 2005) with sleep sets, off by
    default ([config.por]). Every executed step carries its access
    {e footprint} ({!Lineup_runtime.Footprint.t} — the shared location it
    touches and how); two steps commute unless their footprints conflict.
    Backtrack sets are computed dynamically from a last-conflicting-access
    scan of the executed path, and sleep sets prune sibling orders already
    covered by an explored subtree. Operation call/return events carry an
    always-conflicting footprint, so event order — the history — is never
    reordered: the reduction collapses interleavings that produce the same
    history, never distinct histories. Serial mode is never reduced (each
    serial interleaving {e is} a distinct history; phase 1's completeness
    depends on enumerating them all, §4.3).

    The reduction composes soundly with preemption bounding, at reduced
    strength: commuting independent steps can shift which context switches
    count as preemptions, so the classic coverage arguments (lazy backtrack
    sets, unrestricted sleep sets) silently lose bounded schedules. Under a
    finite [preemption_bound] the explorer therefore branches eagerly and
    reduces with {e cost-aware} sleep sets only — an explored sibling may
    cover its reorderings only if it was a free (non-preempting) choice
    whose step ended at a voluntary suspension, which guarantees the
    commuted witness never exceeds the budget at any prefix. Without a
    bound the full lazy reduction applies.

    {1 Weak memory}

    With [config.memory] set to {!Lineup_runtime.Memory_model.Tso} or [Pso]
    the explorer enumerates store-buffer behaviours directly: writes enter
    per-thread (TSO) or per-thread-per-location (PSO) FIFO buffers, and each
    non-empty buffer contributes a {e virtual flusher} — a schedulable id
    [>= n] (for [n] test threads) whose step commits the buffer's oldest
    store. Flush choices are ordinary choices: they appear in decision
    traces, sleep sets and serialized prefixes ([sN] tokens with [N >= n]),
    and carry a write footprint on the committed location so the reduction
    orders them against conflicting accesses. They are always {e free} under
    preemption bounding (a flush runs no thread, so it cannot preempt one),
    which keeps every flush placement reachable at every bound. With [por]
    under a bound, placements are explored lazily: moving a thread step past
    a flush changes the cost of no context switch, so an explored thread
    step that fails the cost-aware rule still sleeps in a later flush
    sibling, across the flushes it commutes with, until the next thread
    step.

    Drain obligations keep executions well-formed: a thread at an RMW
    scheduling point, an [Rt.Fence], or an operation-return marker with a
    non-empty buffer is blocked until scheduler-chosen flushes drain it —
    so RMWs and lock operations are fencing, and every operation's stores
    are globally visible before its return event is recorded (histories
    stay complete; the final observer reads fully flushed memory). Serial
    mode (phase 1) always runs SC. Under the default [Sc] no buffering code
    runs and exploration is exactly as before. *)

type mode =
  | Concurrent
      (** scheduling points at every shared access, operation boundary,
          yield and block — phase 2 *)
  | Serial
      (** scheduling points at operation boundaries only; an execution whose
          running thread blocks ends immediately as a stuck serial execution
          — phase 1 *)

type config = {
  mode : mode;
  preemption_bound : int option;  (** [None] = unbounded *)
  max_steps : int;  (** per-execution step budget (divergence backstop) *)
  max_executions : int option;  (** exploration budget; [None] = exhaustive *)
  por : bool;
      (** dynamic partial-order reduction (concurrent mode only; ignored —
          a sound no-op — in serial mode) *)
  memory : Lineup_runtime.Memory_model.t;
      (** simulated memory model (concurrent mode only; serial mode always
          runs SC — see the weak-memory section above) *)
}

val default_config : config
(** Concurrent mode, preemption bound 2 (the CHESS default used by the
    paper), 50_000 steps, unlimited executions, no reduction. *)

val serial_config : config
(** Serial mode, no preemption bound (phase 1 runs unbounded, §4.3). *)

type exec_end =
  | All_finished  (** every thread ran to completion *)
  | Deadlock of int list  (** no enabled thread; the listed threads are blocked *)
  | Serial_stuck of int  (** serial mode: the running thread blocked mid-operation *)
  | Diverged  (** step budget exhausted (livelock / diverging loop) *)

type exec_outcome = {
  exec_end : exec_end;
  steps : int;
  preemptions : int;
  yields : int;  (** [Rt.yield] suspensions (spin-loop iterations) *)
  flushes : int;  (** store-buffer commits performed; [0] under SC *)
  choice_points : int;
      (** scheduling points where more than one continuation was
          schedulable — the decisions that actually branch the search *)
  errors : (int * exn) list;
      (** exceptions escaping thread bodies (implementation bugs of a
          different kind; exploration continues) *)
  por_pruned : bool;
      (** the execution was abandoned by the reduction (every schedulable
          choice was in the sleep set); never delivered to [on_execution] *)
}

type stats = {
  executions : int;
  total_steps : int;
  deadlocks : int;
  divergences : int;
  serial_stucks : int;
  max_depth : int;  (** deepest decision trace seen *)
  pruned_choices : int;  (** alternatives dropped by the preemption bound *)
  preemptions_spent : int;  (** preemptions consumed, summed over executions *)
  yields : int;  (** fairness yields observed, summed over executions *)
  choice_points : int;  (** branching scheduling decisions, summed *)
  exact_bound_skips : int;
      (** executions run but rejected by the admission filter ([?admit],
          used by {!explore_iterative}'s exact-bound filter): they never
          reach [on_execution], so no per-execution work happens for them;
          always [0] without a filter *)
  sleep_set_skips : int;
      (** executions abandoned by the reduction as redundant
          ([por_pruned]); not counted in [executions] *)
  backtrack_points : int;
      (** backtracking alternatives added by the dynamic conflict analysis *)
  flushes : int;  (** store-buffer commits, summed; [0] under SC *)
  complete : bool;
      (** the schedule space was exhausted (no budget cut, no early stop) *)
}

val pp_stats : Format.formatter -> stats -> unit

val empty_stats : stats
(** The neutral element of {!merge_stats}: all counters zero,
    [complete = true]. *)

val merge_stats : stats -> stats -> stats
(** Componentwise merge of the statistics of two independent explorations:
    counters add, [max_depth] takes the maximum, [complete] is the
    conjunction. Associative and commutative with {!empty_stats} as the
    unit, so a fold over per-worker statistics is order-independent — the
    parallel checker relies on this to report deterministic aggregates. *)

(** [explore cfg ~setup ~on_execution ()] enumerates schedules depth-first.
    [setup] is run before each execution (with effects serviced inline, see
    {!Lineup_runtime.Rt.run_inline}) and returns the thread bodies.
    [on_execution] is called after each execution; returning [`Stop] ends the
    exploration early.

    [admit] filters executions {e before} any per-execution work: a rejected
    execution is counted in [stats.exact_bound_skips] and [on_execution] is
    not called (so the caller never builds its history). Defaults to
    admitting everything. *)
val explore :
  config ->
  ?admit:(exec_outcome -> bool) ->
  setup:(unit -> (unit -> unit) array) ->
  on_execution:(exec_outcome -> [ `Continue | `Stop ]) ->
  unit ->
  stats

(** {1 Frontier splitting}

    Intra-check parallelism partitions one schedule tree across workers by
    its decision-prefix frontier: a shallow sequential warm-up ({!split})
    enumerates every realizable decision prefix of length at most [depth]
    — the {e frontier} — and each partition is then explored independently
    ({!explore_from}) by replaying its prefix and enumerating the subtree
    below it, on any domain. Because a prefix pins the first [depth]
    decisions and the program under test is deterministic given its
    decisions, the subtrees are disjoint and their union is exactly the
    schedule set {!explore} enumerates: same execution count, same
    histories, in the same canonical order when partition results are
    concatenated in frontier order (P-compositionality in the sense of
    Horn & Kroening, applied to the schedule space).

    Composition with the reduction: the warm-up always runs {e unreduced},
    so the frontier — and with it the partition set and the [-j] merge
    order — is identical with and without [config.por]; each partition then
    explores its own subtree reduced, with the frozen prefix exempt from
    backtracking. Redundancy {e across} partitions that a monolithic
    reduced search would have pruned is retained by construction. *)

(** One recorded scheduling decision, frozen for transport across domains:
    the thread chosen at a scheduling point, or the value chosen at a
    demonic [Choose] point (with its arity, revalidated on replay). *)
type choice =
  | Sched_choice of int
  | Value_choice of { chosen : int; arity : int }

(** A decision-trace prefix in execution order, identifying one partition
    of the schedule tree. Immutable and self-contained: safe to hand to
    another domain, or to serialize. *)
type prefix = choice list

val prefix_to_string : prefix -> string
(** Compact textual transport encoding of a prefix (choices ';'-joined,
    [sN] thread / [vC/A] value tokens) — used to serialize frontier
    partitions for other processes and for on-disk checkpoints. Injective,
    and [""] encodes the empty prefix. *)

val prefix_of_string : string -> (prefix, string) result
(** Total inverse of {!prefix_to_string} on its image; anything else —
    corrupted checkpoints, foreign files — is rejected with a message
    rather than replayed. *)

type frontier = {
  prefixes : prefix list;
      (** the partitions, in canonical DFS order — concatenating each
          partition's executions in this order reproduces {!explore}'s
          execution order exactly *)
  warmup : stats;
      (** statistics of the warm-up executions (one per partition);
          [warmup.complete = false] means the warm-up was stopped early
          (budget or [`Stop]) and [prefixes] covers only part of the tree *)
}

(** [split cfg ~depth ~setup ~on_execution] runs the depth-[depth] warm-up
    and returns the frontier. Each warm-up execution runs to completion
    (an execution cannot be abandoned mid-flight) and realizes exactly one
    frontier prefix; [on_execution] is called on each — return [`Stop] to
    abandon the warm-up (e.g. on cancellation). Executions whose full
    decision trace is shorter than [depth] form singleton partitions.
    [cfg.max_executions] caps the number of partitions. [cfg.por] is
    ignored: the warm-up runs unreduced (see above). *)
val split :
  config ->
  depth:int ->
  setup:(unit -> (unit -> unit) array) ->
  on_execution:(exec_outcome -> [ `Continue | `Stop ]) ->
  frontier

(** [explore_from cfg ~prefix ~setup ~on_execution ()] explores exactly the
    partition identified by [prefix]: the first [List.length prefix]
    decisions are replayed frozen (never backtracked, never offered
    backtracking alternatives by the reduction), everything below is
    enumerated depth-first as {!explore} would — reduced when [cfg.por].
    [stats.complete] refers to the partition's subtree. [admit] as in
    {!explore}. Raises [Invalid_argument] if the prefix does not replay
    against the program (wrong arity or unschedulable thread — a prefix is
    only meaningful for the [setup] that produced it). *)
val explore_from :
  config ->
  ?admit:(exec_outcome -> bool) ->
  prefix:prefix ->
  setup:(unit -> (unit -> unit) array) ->
  on_execution:(exec_outcome -> [ `Continue | `Stop ]) ->
  unit ->
  stats

(** [explore_iterative cfg ~max_bound ~setup ~on_execution] — iterative
    context bounding, the search order CHESS actually uses (Musuvathi &
    Qadeer, PLDI 2007): explore the schedule space exhaustively at
    preemption bound 0, then 1, … up to [max_bound] (inclusive), stopping
    early when [on_execution] returns [`Stop]. Returns the per-bound
    statistics in order together with the bound at which the exploration
    stopped, if it did. [cfg.preemption_bound] is ignored; [max_executions]
    applies per bound.

    The tree at bound b is a superset of the tree at bound b-1, so the
    sweep necessarily {e re-executes} lower-bound schedules at each level;
    it does {e not} re-admit them: at bound b > 0, only executions that
    spend exactly b preemptions are admitted (each schedule is admitted
    exactly once across the sweep, at the bound equal to its preemption
    count). The filter runs as the [?admit] hook of {!explore}, so a
    filtered execution costs its re-execution and nothing more — no
    history is built, no checker runs; it is counted in the per-bound
    [stats.exact_bound_skips]. *)
val explore_iterative :
  config ->
  max_bound:int ->
  setup:(unit -> (unit -> unit) array) ->
  on_execution:(exec_outcome -> [ `Continue | `Stop ]) ->
  stats list * int option

(** [random_walk cfg ~rng ~executions ~setup ~on_execution] replaces the
    systematic enumeration with uniformly random scheduling decisions — the
    "plain stress testing" baseline the paper contrasts with systematic
    exploration (§4: "simple runtime monitoring is not sufficient").
    [stats.complete] is always [false]. *)
val random_walk :
  config ->
  rng:Random.State.t ->
  executions:int ->
  setup:(unit -> (unit -> unit) array) ->
  on_execution:(exec_outcome -> [ `Continue | `Stop ]) ->
  stats
