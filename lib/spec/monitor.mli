(** Decrease-and-conquer membership monitors (Lee & Mathur style) for
    unambiguous queue and stack histories, as engines fed one event at a
    time: [lineup monitor] runs them on a stream ([Lineup_monitor.Engine]).

    For the insert/remove fragment of the vocabulary — [Enqueue]/
    [TryDequeue]/[Take] for queues, [Push]/[TryPop] for stacks — with every
    inserted value distinct (unambiguity) and an empty initial state,
    linearizability is decided by interval conditions on event positions
    instead of a witness search, in windows that each cost O(W log W) for
    their own W operations (with a stack's carried pairs and the
    unremoved pushes that can block one), however many values stay
    unremoved:

    - value safety: a removed value was inserted, exactly once, and its
      remove does not precede its insert;
    - queue FIFO: no values [v, w] with [insert v <H insert w], [w] removed,
      and ([v] never removed or [remove w <H remove v]);
    - empty removes: a [TryDequeue]/[TryPop] returning [Fail] must admit a
      linearization point outside every interval in which some value is
      definitely present;
    - stack LIFO: greedy peeling — repeatedly delete a matched push/pop pair
      with no other insert/remove forced strictly between them; the history
      is linearizable iff all matched pairs peel.

    Histories using any other operation (peeks, counts, ranges), a
    non-integer value, a pending operation at the end, or an ambiguous
    (re-inserted) value are reported [Unsupported], never guessed. The
    test suite cross-validates every verdict against {!Lin_check} on random
    histories and on the histories the model checker explores. *)

(** The one membership answer, {!Spec.verdict}, re-exported with its
    constructors. *)
type verdict = Spec.verdict =
  | Accept
  | Reject
  | Unsupported of string

(** The engines.

    Completed operations accumulate in a window; at each quiescent point
    (no pending call) once at least [min_batch] operations have completed,
    the interval checks run over the window plus the still-live values and
    the decided pairs/empties are garbage-collected. GC cannot change any
    verdict — see DESIGN.md ("Streaming monitor") for the argument per
    check. If no quiescent point occurs within [max_window] operations the
    engine degrades to [Unsupported] rather than growing without bound.

    Verdicts are sticky: after the first [Reject]/[Unsupported], further
    events are ignored. [shed] records an operation dropped under
    backpressure and degrades the engine {e accept-lean}: a [Reject]
    remains trustworthy, but some violations involving shed values may be
    missed. *)
module Stream : sig
  type t

  val create_queue : ?min_batch:int -> ?max_window:int -> unit -> t
  (** Queue engine ([Enqueue]/[TryDequeue]/[Take]). [min_batch] defaults
      to 512, [max_window] to 1_048_576. *)

  val create_stack : ?min_batch:int -> ?max_window:int -> unit -> t
  (** Stack engine ([Push]/[TryPop]); same defaults. *)

  val feed : t -> Lineup_history.Event.t -> unit
  (** Process one call or return event. No-op once a verdict is reached. *)

  val shed : t -> call:Lineup_history.Event.t -> ret:Lineup_history.Event.t -> unit
  (** Record an operation dropped under backpressure, given its two events
      as captured at drop time. *)

  val verdict_now : t -> verdict option
  (** [Some] once the verdict is decided (sticky); [None] while the stream
      is still undecided (= accepting so far). *)

  val finalize : t -> verdict
  (** End of stream: run the final window regardless of [min_batch] and
      settle the verdict. A still-pending operation is [Unsupported]. *)

  val ops : t -> int
  (** Completed operations processed. *)

  val sheds : t -> int
  (** Operations dropped via {!shed}. *)

  val windows : t -> int
  (** Window checks performed. *)

  val resident : t -> int
  (** Current retained tracking state in operations (live values, window
      accumulators, pending calls, unpeeled pairs) — the quantity windowed
      GC keeps bounded. *)

  val intervals : t -> int
  (** Total interval count across the value Diets (inserted / removed /
      amnesty) — the engine's only other retained state. *)
end
