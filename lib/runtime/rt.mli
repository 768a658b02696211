(** The instrumented concurrency interface.

    Code under test is written against this module. Every shared-memory
    access and synchronization operation performs an effect, giving the
    scheduler (in [lineup_scheduler]) a point at which it may switch threads
    — exactly the instrumentation CHESS obtains by binary rewriting of .NET
    code. The effects are declared here; only the scheduler handles them.

    Scheduling-point discipline:
    - {!access} precedes every shared read/write/RMW. The code between a
      scheduling point and the next one executes atomically.
    - {!sched} with [Boundary] is performed by the test harness before each
      operation call; in phase 1 (serial exploration) these are the only
      points where the scheduler switches threads.
    - {!sched} with [Return_boundary] is performed by the test harness just
      before recording an operation's return event. In concurrent mode it is
      a scheduling point like [Boundary] (CHESS schedules at the call/return
      markers themselves), which makes the event-emitting step visible to
      the partial-order reduction; in serial mode it is a no-op, so an
      operation runs atomically through its return and phase-1 histories
      stay serial.
    - {!sched} with [Fence] is a store-barrier point. Under the SC memory
      model it behaves like an ordinary [Boundary]; under TSO/PSO the
      scheduler holds the thread until its store buffers have drained (the
      flushes themselves are scheduler choices, so every drain interleaving
      is explored). {!Shared_var} read-modify-writes get the same draining
      treatment implicitly, which is what makes lock and condvar operations
      fencing.
    - {!block} suspends the thread until a wake predicate holds; blocked
      threads are disabled, not spinning, so deadlocks are detected exactly
      (Definition 2 of the paper needs this).
    - {!choose} is demonic choice, used to model timing-dependent outcomes
      such as lock-acquisition timeouts; the model checker explores every
      branch.
    - {!yield} marks a spin-loop iteration; the fair scheduler will not run
      the yielding thread again until another enabled thread has run (the
      fairness of Musuvathi & Qadeer 2008, which the paper relies on for
      spin-loop-based implementations). *)

type sched_reason = Boundary | Return_boundary | Fence

(** [Access] is a shared access's scheduling point. It carries no payload:
    the access's footprint is in a domain-local slot, {!accessed}, so an
    access allocates nothing but its continuation. *)
type _ Effect.t +=
  | Sched : sched_reason -> unit Effect.t
  | Access : unit Effect.t
  | Block : (unit -> bool) * string * Footprint.t -> unit Effect.t
  | Choose : int * string -> int Effect.t
  | Yield : unit Effect.t

(** [sched r] performs a scheduling point; a [Fence] is logged. *)
val sched : sched_reason -> unit

(** [access ~loc ~loc_name ~kind ~volatile] performs the scheduling point of
    an access of [kind] to location [loc] and logs the access. *)
val access :
  loc:int -> loc_name:string -> kind:Exec_ctx.access_kind -> volatile:bool -> unit

(** The footprint of the access whose [Access] effect is being handled. *)
val accessed : unit -> Footprint.t

(** [op_boundary ()] = [sched Boundary]. *)
val op_boundary : unit -> unit

(** [fence ()] = [sched Fence]: a full store barrier. A no-op under SC
    (beyond being a scheduling point); under TSO/PSO the calling thread does
    not proceed past it until every store it has buffered is globally
    visible. *)
val fence : unit -> unit

(** [block ?footprint ~wake what] suspends the calling thread until
    [wake ()] holds. If the predicate already holds, returns immediately
    (without a scheduling point). [wake] must be pure reads of shared state
    — it is evaluated by the scheduler and must not perform effects. [what]
    describes the awaited condition for reports.

    [footprint] describes the shared-state effect of the step the thread
    will execute once woken (e.g. re-checking and taking a lock is an [Rmw]
    of the lock's location); defaults to {!Footprint.unknown}, which the
    partial-order reduction treats as conflicting with everything. *)
val block : ?footprint:Footprint.t -> wake:(unit -> bool) -> string -> unit

(** [choose ?what n] demonically picks a value in [0 .. n-1]; the model
    checker explores all branches. *)
val choose : ?what:string -> int -> int

(** Spin-loop hint; see module description. *)
val yield : unit -> unit

(** Id of the currently running thread (0-based test-thread index). *)
val self : unit -> int

(** [run_inline f] evaluates [f ()] servicing its effects synchronously:
    scheduling points are no-ops, [choose] always returns 0, and a [block]
    whose predicate is false raises [Failure]. Used to run object
    construction and pre-test initialization code outside the explorer. *)
val run_inline : (unit -> 'a) -> 'a
