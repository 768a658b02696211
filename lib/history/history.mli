(** Histories (Section 2.1.1): finite sequences of call and return events on
    the (implicit) single object under test.

    A history may additionally be marked {e stuck} (Section 2.3): the
    execution that produced it can make no further progress — its pending
    operations are blocked forever (deadlock, livelock or divergence). A
    stuck history corresponds to the paper's sequences ending in the special
    symbol [#]. *)

type t

(** [make ?stuck events] builds a history and checks well-formedness: each
    thread subhistory must be serial (calls and returns alternate, each
    return matches the immediately preceding call of the same thread).
    Raises [Invalid_argument] otherwise. *)
val make : ?stuck:bool -> Event.t list -> t

val events : t -> Event.t list
val is_stuck : t -> bool
val length : t -> int

(** Threads that have at least one event in the history. *)
val threads : t -> int list

(** [thread_sub h t] is the thread subhistory [H|t]. *)
val thread_sub : t -> int -> Event.t list

(** Operations of the history in call order. *)
val ops : t -> Op.t list

(** [thread_key h] is each thread's operation sequence — invocation and
    response ([None] while pending), in per-thread order — for the threads
    of [h] in ascending id order. Two histories have the same key exactly
    when [H|t = H'|t] for every thread [t] (condition 2 of a serial
    witness); it is the grouping key of the observation index and of the
    observation-file sections, and equals {!Serial_history.thread_key} of a
    serial history with the same thread subhistories. *)
val thread_key : t -> (int * (Invocation.t * Lineup_value.Value.t option) list) list

val pending_ops : t -> Op.t list
val complete_ops : t -> Op.t list

(** [is_complete h] holds when the history contains no pending call. *)
val is_complete : t -> bool

(** [complete h] is the history obtained by deleting all pending calls
    (the paper's [complete(H)]). The result is never marked stuck. *)
val complete : t -> t

(** [is_serial h]: the sequence starts with a call, calls and returns
    alternate, and each return matches the immediately preceding call
    (Section 2.1.1). The empty history is serial. A stuck serial history may
    end with a pending call. *)
val is_serial : t -> bool

(** [restrict_to_pending h e] is the paper's [H[e]] (Section 2.3): the stuck
    history obtained from stuck [h] by removing all pending calls except the
    invocation of pending operation [e]. Raises [Invalid_argument] if [h] is
    not stuck or [e] is not pending in [h]. *)
val restrict_to_pending : t -> Op.t -> t

(** [prefixes h] enumerates all well-formed prefixes of [h] (including the
    empty history and [h] itself); prefix histories are not marked stuck. *)
val prefixes : t -> t list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Pretty-print in the interleaving notation of Fig. 7: each operation gets
    an id, ["i["] marks its call, ["]i"] its return, and stuck histories end
    with ["#"]. The operation ids follow call order. *)
val pp_interleaving : Format.formatter -> t -> unit
