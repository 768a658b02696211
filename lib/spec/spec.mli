(** Explicit deterministic sequential specifications.

    Line-Up's whole point is that these are {e not} needed — phase 1
    synthesizes the specification from the implementation. This module exists
    for three reasons: (1) it gives the formal objects of Section 2.1.2 a
    concrete form (the specification automaton of Fig. 3); (2) together with
    {!Lin_check} it provides an independent linearizability oracle used to
    cross-validate the two-phase check in the test suite; (3) wrapped in a
    coarse lock (see [Lineup_conc.Spec_impl]) it yields correct-by-
    construction reference implementations.

    A specification is deterministic by construction: [step] is a function.
    [Blocked] models operations that must wait (the semaphore-like [dec] of
    the paper's counter example).

    It also declares the one answer every membership engine gives — the
    observation search, {!Lin_check}, the {!Monitor}s and {!Kmon} — and
    Definition 2's loop over the pending operations of a stuck history
    ({!first_unjustified}), written once over whichever engine decides its
    queries. *)

(** The abstract-data-type class of a specification. The engines of
    [lineup monitor] dispatch on it ([Lineup_monitor.Engine]): the
    decrease-and-conquer monitors of {!Monitor} for [Queue]/[Stack], the
    per-key chunked engine of {!Kmon} for [Set]/[Dictionary], and the same
    engine over one key for the rest. The class is a routing hint only — it
    never changes what a verdict means. *)
type cls =
  | Queue  (** FIFO: values enter at the tail, leave at the head *)
  | Stack  (** LIFO *)
  | Set  (** membership keyed by an integer argument *)
  | Dictionary  (** key-value map keyed by an integer argument *)
  | Counter  (** scalar state, no per-key structure *)
  | Other  (** none of the above: the single-key chunked engine *)

type 'st outcome =
  | Return of Lineup_value.Value.t * 'st
  | Blocked  (** the invocation cannot proceed in this state *)

type 'st t = {
  name : string;
  cls : cls;
  initial : 'st;
  step : 'st -> Lineup_history.Invocation.t -> 'st outcome;
  state_key : 'st -> string;
      (** injective encoding of the state, used for memoization in
          {!Lin_check} and for cheap state equality *)
}

(** A specification with its state type hidden. *)
type packed = Packed : 'st t -> packed

(** [run spec invs] applies the invocations in order from the initial state,
    returning the responses; stops early at the first blocked invocation
    (returning [None] in that slot and ending the list there). *)
val run :
  'st t ->
  Lineup_history.Invocation.t list ->
  (Lineup_history.Invocation.t * Lineup_value.Value.t option) list

(** The answer of a membership engine to one query: a complete history
    (Definition 1) or the [H[e]] of a stuck history, whose only pending
    operation is [e] (Definition 2). *)
type verdict =
  | Accept  (** a serial witness exists *)
  | Reject  (** no serial witness exists *)
  | Unsupported of string
      (** the engine cannot decide this query, and says why; never a
          guess *)

(** [first_unjustified decide h] is Definition 2 for the stuck history
    [h]: it walks [History.pending_ops h] in order and returns the first
    pending operation [e] whose [H[e]] [decide] does not [Accept], with
    that verdict, or [None] when every one is justified. *)
val first_unjustified :
  (Lineup_history.History.t -> verdict) ->
  Lineup_history.History.t ->
  (Lineup_history.Op.t * verdict) option
