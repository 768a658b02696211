(** Per-execution mutable context.

    The stateless model checker re-runs the program under test from scratch
    for every explored schedule. This module holds the little bits of global
    state that must be reset between executions: the shared-location id
    counter, the identity of the currently running thread (maintained by the
    scheduler; execution is cooperative and single-domain, so a plain mutable
    cell is sound), and the access log consumed by the comparison checkers of
    Section 5.6 (data-race detection, conflict-serializability). *)

type access_kind = Read | Write | Rmw

type entry =
  | Access of {
      tid : int;
      loc : int;
      loc_name : string;
      kind : access_kind;
      volatile : bool;
    }
  | Lock_acquire of { tid : int; lock : int; name : string }
  | Lock_release of { tid : int; lock : int; name : string }
  | Op_start of { tid : int; op_index : int }
  | Op_end of { tid : int; op_index : int }
  | Fence of { tid : int }
      (** an explicit [Rt.fence] — a full store barrier. Logged so
          order-sensitive analyses (the Section 5.7 store-buffering
          monitor) can tell fenced code from fence-free code. *)

(** [reset ()] clears all per-execution state. Called by the scheduler before
    each execution. *)
val reset : unit -> unit

(** Fresh shared-location id. Allocation order is deterministic across
    replayed executions, so ids are stable. *)
val fresh_loc : unit -> int

val set_current_tid : int -> unit
val current_tid : unit -> int

(** {2 Store buffers (weak memory)}

    Under {!Memory_model.Tso}/{!Memory_model.Pso} the scheduler simulates
    hardware store buffers. A {e flush unit} is one FIFO buffer it can flush
    the oldest entry from: one per thread under TSO, one per (thread,
    location) pair under PSO. Units are registered on first write and keep
    their index for the rest of the execution, so unit indices are
    deterministic across replays of the same decision prefix. Under
    {!Memory_model.Sc} no unit is ever created and every buffer query is
    trivially empty. *)

(** [set_memory m] selects the simulated memory model and discards all
    buffered writes. Only the scheduler calls this — around the scheduled
    part of an execution — so inline contexts ({!Rt.run_inline}: adapter
    construction, test setup, the final observer) always run under [Sc]. *)
val set_memory : Memory_model.t -> unit

val memory : unit -> Memory_model.t

(** [buffer_push ~loc ~loc_name ~commit] appends a pending store by the
    current thread to the appropriate flush unit (creating it on first use).
    [commit] performs the globally visible effect when the entry is flushed. *)
val buffer_push : loc:int -> loc_name:string -> commit:(unit -> unit) -> unit

(** Number of registered flush units (including currently empty ones —
    indices are never recycled within an execution). *)
val flush_unit_count : unit -> int

(** [flush_unit_loc u] is the location id (always [>= 0]) of the oldest
    buffered store in unit [u], or [-1] if [u] is unknown or empty. It does
    not allocate. *)
val flush_unit_loc : int -> int

(** [flush_one u] commits the oldest buffered store of unit [u] to shared
    memory. Raises [Invalid_argument] if the unit is empty. *)
val flush_one : int -> unit

(** [buffer_empty tid] holds when thread [tid] has no pending buffered
    stores in any unit. Always true under [Sc]. *)
val buffer_empty : int -> bool

(** Access logging is off by default (exploration-speed); the comparison
    checkers enable it. *)
val set_logging : bool -> unit
val logging_enabled : unit -> bool

(** [with_logging enabled f] runs [f] with access logging set to [enabled]
    and restores the previous setting on return {e and} on exception
    ([Fun.protect]): an analysis that raises mid-exploration can never leak
    a logging-enabled (or -disabled) state into subsequent checks. The flag
    is domain-local, so the scope is the calling domain only — parallel
    partition workers each wrap their own exploration. *)
val with_logging : bool -> (unit -> 'a) -> 'a
val log : entry -> unit

(** The log of the current execution, in execution order. *)
val current_log : unit -> entry list

val pp_entry : Format.formatter -> entry -> unit
