(** Serial-witness probes (Section 2.1.4).

    A serial history [S] is a witness for a history [H] when (1) [S] is
    serial, (2) [S|t = H|t] for every thread [t], and (3) [<H ⊆ <S]. [H]
    is a complete history (Definition 1) or the [H[e]] of a stuck history,
    with a single pending operation (Definition 2).

    Only the probe halves live here; the phase-2 search that uses them is
    [Lineup.Observation.witness]. A search probing many candidates pays
    for each side once: {!positions} of every serial history, {!prepare}
    of the history, and {!preserves_order} comparing the two with integer
    operations only. Condition 2 is {!History.thread_key} equality, which
    the observation index settles before any candidate is probed. *)

(** Where each operation of a serial history sits in its linear order. *)
type positions

val positions : Serial_history.t -> positions

(** A history's events, encoded for {!preserves_order}. *)
type prepared

val prepare : History.t -> prepared

(** [preserves_order (positions s) (prepare h)] is condition 3, [<H ⊆ <S].
    Only meaningful when [s] and [h] have equal thread keys (condition 2). *)
val preserves_order : positions -> prepared -> bool
