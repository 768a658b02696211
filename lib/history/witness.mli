(** Serial-witness probes (Section 2.1.4).

    A serial history [S] is a witness for a history [H] when (1) [S] is
    serial, (2) [S|t = H|t] for every thread [t], and (3) [<H ⊆ <S]. [H]
    is a complete history (Definition 1) or the [H[e]] of a stuck history,
    with a single pending operation (Definition 2).

    Only the probe halves live here; the phase-2 search that uses them is
    [Lineup.Observation.witness]. A search probing many candidates pays
    for each side once: {!index} of every serial history, {!prepare}
    of the history, and {!preserves_order} comparing the two with integer
    operations only. Condition 2 is key equality: the observation index
    groups serial histories by {!key}, so a candidate is probed only once
    its key equals the history's. *)

(** A flat thread key: the complete operations in thread-key order
    (threads by ascending id, each thread's operations in its own order),
    and the pending calls. Two keys are equal exactly when the
    {!History.thread_key}s (or {!Serial_history.thread_key}s) they were
    built from are. *)
type key

val key_equal : key -> key -> bool

(** Equal keys hash equally. *)
val key_hash : key -> int

(** Where each operation of a serial history sits in its linear order. *)
type positions

(** [index s] is the key of serial history [s] and its positions, built in
    one counting sort on thread id. *)
val index : Serial_history.t -> key * positions

(** A history's events, encoded for {!preserves_order}. *)
type prepared

(** [prepare h] is the key of [h] and its encoded events, built in one
    counting sort on thread id. *)
val prepare : History.t -> key * prepared

(** [preserves_order pos events] is condition 3, [<H ⊆ <S], for [pos] of
    serial history [s] and [events] of history [h]. Only meaningful when
    their keys are equal (condition 2). *)
val preserves_order : positions -> prepared -> bool
