(** One checking engine for one event stream, dispatching on
    the specification class: queues and stacks run the near-linear
    {!Lineup_spec.Monitor.Stream} engines, sets and dictionaries the
    keyed chunked feasible-state engine ({!Lineup_spec.Kmon}), and every
    other class the same chunked engine over a single key — any
    registered specification is monitorable. *)

type t

val default_min_batch : int
(** 512: [lineup monitor]'s window threshold ({!Driver.default_opts}). *)

val default_max_window : int
(** 1_048_576: [lineup monitor]'s quiescence bound. *)

val create : spec:Lineup_spec.Spec.packed -> min_batch:int -> max_window:int -> t
val feed : t -> Lineup_history.Event.t -> unit

val flush : t -> unit
(** The producer paused: check what the engine holds up to its quiescent
    points, whatever [min_batch] or chunk size (queues and stacks run
    their window; the chunked engines close each key's chunk that has no
    pending call). An [Accept] or [Reject] stays what it would be; it may
    only come sooner. *)

val verdict_now : t -> Lineup_spec.Monitor.verdict option
val finalize : t -> Lineup_spec.Monitor.verdict
val ops : t -> int

val windows : t -> int
(** Window checks (fast engines) or closed chunks (chunked engines). *)

val resident : t -> int
(** Retained state in operations/intervals — what windowing keeps bounded. *)
