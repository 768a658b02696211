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

val shed :
  t -> call:Lineup_history.Event.t -> ret:Lineup_history.Event.t -> unit

val verdict_now : t -> Lineup_spec.Monitor.verdict option
val finalize : t -> Lineup_spec.Monitor.verdict
val ops : t -> int
val sheds : t -> int

val windows : t -> int
(** Window checks (fast engines) or closed chunks (chunked engines). *)

val resident : t -> int
(** Retained state in operations/intervals — what windowing keeps bounded. *)
