(** First-class access footprints for scheduling steps.

    A {e step} is everything a thread executes between two scheduling
    points. Because every modeled shared access performs its scheduling
    effect {e before} touching shared state, a suspended thread's next step
    has a statically known footprint: the access it is suspended at (plus
    only thread-local work up to its next suspension). The explorer's
    partial-order reduction uses these footprints to decide which pending
    steps commute; they are also the declared hook point for relaxed-memory
    exploration (ROADMAP item 4), where store-buffer flush steps will carry
    their own footprints.

    Conservatism contract: when a step's effect on shared state cannot be
    described precisely, it must be classified {!unknown}, which conflicts
    with everything except {!pure}, so imprecision can only cost reduction,
    never soundness. *)

(** A step's footprint is one of:
    - {e pure}: touches no modeled shared state (e.g. a spin-loop body);
    - an {e access}: exactly one access to a shared location; lock
      operations are [Rmw] accesses to the lock's location;
    - an {e event}: emits operation call/return events into the history
      log; event order {e is} the history, so two event steps never commute;
    - {e unknown}: conservatively conflicts with every non-pure step.

    It is an immediate, so recording one per step allocates nothing. *)
type t = private int

val pure : t
val event : t
val unknown : t

(** [access ~loc ~kind] for a location id [loc >= 0]. *)
val access : loc:int -> kind:Exec_ctx.access_kind -> t

(** [is_rmw fp] holds for an [Rmw] access. *)
val is_rmw : t -> bool

(** [conflicts a b] — the steps do {e not} commute: executing them in either
    order may lead to different states or different histories. Symmetric.
    A pure step conflicts with nothing, an unknown one with everything not
    pure, an event with an event, and two accesses iff they touch the same
    location and at least one writes. *)
val conflicts : t -> t -> bool

val pp : Format.formatter -> t -> unit
