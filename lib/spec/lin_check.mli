(** Direct linearizability checking against an explicit specification.

    This is the classical approach Line-Up replaces: given a sequential
    specification, search for a linearization (a serial witness) of a
    concurrent history. The search follows Wing & Gong's algorithm with
    Lowe-style memoization on (set of linearized operations, specification
    state).

    In this codebase it serves two roles: an independent oracle — the test
    suite checks that the two-phase Line-Up verdict, the engines' verdicts
    and the direct verdict agree on histories produced by the model checker
    and on random ones — and the per-chunk membership check of the chunked
    engine ({!Kmon}) that [lineup monitor] runs on set and dictionary
    streams.

    [decide] answers one query with the shared {!Spec.verdict}; a stuck
    history is judged by running {!Spec.first_unjustified} over it. The
    bitmask representation limits one search to 62 operations: [decide]
    answers a larger query [Unsupported] instead of aborting the run. *)

(** [decide spec q] decides one query. On a history that is not stuck it
    applies Definition 1: can [q] be extended (completing or dropping its
    pending calls) so that [complete q'] has a serial witness? On the
    [H[e]] of a stuck history it is Definition 2's test for [e]: a serial
    witness of the complete operations after which the specification
    blocks on [e]'s invocation. Raises [Invalid_argument] on a stuck
    history with more than one pending operation. *)
val decide : 'st Spec.t -> Lineup_history.History.t -> Spec.verdict

(** [final_states spec h] — all specification states reachable by
    linearizing the complete history [h] in full: one representative per
    distinct [state_key], sorted by key (so the list is deterministic).
    [`States []] means no witness exists at all. This is the feasible-state
    set the chunked streaming monitor ({!Kmon}) threads between quiescent
    chunks. Raises [Invalid_argument] if [h] has pending operations;
    oversized histories are [`Unsupported]. *)
val final_states :
  'st Spec.t -> Lineup_history.History.t -> [ `States of 'st list | `Unsupported of string ]

(** [linearization spec h] returns a witness linearization order of the
    complete operations of [h] (completing pending calls when possible), or
    [None] if the history is not linearizable. For reporting and tests.
    Raises [Invalid_argument] on histories of more than 62 operations. *)
val linearization : 'st Spec.t -> Lineup_history.History.t -> Lineup_history.Op.t list option
