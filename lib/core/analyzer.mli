(** Per-execution analyses as pluggable observers of one exploration.

    Section 5.6 of the paper runs its comparison checkers (the CHESS
    happens-before race detector, the Farzan & Madhusudan
    conflict-serializability monitor) "on the same executions" Line-Up
    explores — every one of them is a {e per-execution} function over an
    execution's history and access log. An analyzer packages such an
    analysis so that {!Pipeline} can drive any number of them over a
    {e single} exploration: each schedule is executed exactly once no
    matter how many analyses consume it.

    An analyzer is a first-class module with:
    - a mutable [state], stepped once per explored execution;
    - a [merge] on states: each frontier partition accumulates into a
      fresh state and the per-partition states are merged {e in frontier
      order} on the calling domain. Pure accumulators (sets of findings,
      counters) must make [merge] order-insensitive; verdict-carrying
      analyzers may resolve ties left-to-first, which the fixed frontier
      order makes deterministic;
    - a deterministic [render] and [metrics]: both must be functions of
      the merged state only (no wall-clock, no hash-order dependence), so
      the output is byte-identical for every domain count;
    - [needs_log]: whether the analysis reads the shared-access log. The
      pipeline enables {!Lineup_runtime.Exec_ctx} logging iff some
      attached analyzer needs it, restored exception-safely.

    Analyzers must not touch modeled shared state: a step runs between
    executions, outside the modeled runtime, so — exactly like the metrics
    layer — it cannot introduce scheduling points and cannot perturb the
    enumeration (see DESIGN.md). *)

module type S = sig
  type state

  val id : state Stdlib.Type.Id.t
  (** Identity witness for [state] — lets the pipeline re-pair partition
      states of the same analyzer across the existential boundary
      ({!project}, {!merge}). Create one per analyzer value with
      [Stdlib.Type.Id.make ()]; analyzers that share a state type and its
      [merge] may share one (every Line-Up analyzer does, so a shard merge
      can repack marshaled states). *)

  val name : string
  (** Short stable identifier; keys the [analyze.<name>.*] metrics. *)

  val needs_log : bool
  (** Whether [step] reads [run_result.log]. *)

  val init : unit -> state
  (** A fresh accumulator (one per exploration, or per frontier
      partition). Must be the neutral element of [merge]. *)

  val step : state -> Harness.run_result -> [ `Continue | `Done ]
  (** Consume one execution, mutating [state]. [`Done] means this
      analyzer needs no further executions (e.g. a verdict was reached);
      the exploration stops early only when {e every} attached analyzer
      is done. A done analyzer is never stepped again. *)

  val merge : state -> state -> state
  (** Combine the states of two independent sub-explorations; the
      pipeline folds partition states left-to-right in frontier order. *)

  val metrics : state -> (string * int) list
  (** Deterministic counters, emitted as [analyze.<name>.<key>]. *)

  val render : state -> string
  (** The human-readable findings — deterministic (sort collections),
      newline-terminated. *)

  val violation : state -> bool
  (** Whether the findings should fail a gate (drives [compare]'s exit
      code for the Line-Up analyzer; informational analyzers return
      [false]). *)
end

type t = T : (module S with type state = 's) -> t

(** A state paired with its analyzer module — what the pipeline threads
    through partitions and returns in its report. *)
type packed = Packed : (module S with type state = 's) * 's -> packed

val name : t -> string
val needs_log : t -> bool

val fresh : t -> packed
(** [fresh t] packs [init ()]. *)

val step : packed -> Harness.run_result -> [ `Continue | `Done ]

val merge : packed -> packed -> packed
(** Merge two packed states of the {e same} analyzer (witnessed by [id]).
    Raises [Invalid_argument] when the analyzers differ. *)

val project : packed -> 's Stdlib.Type.Id.t -> 's option
(** [project p id] recovers the concrete state when [p] belongs to the
    analyzer that owns [id] — how a caller that built an analyzer reads
    its final state back out of a pipeline report. *)

val metrics : packed -> (string * int) list
val render : packed -> string
val violation : packed -> bool
