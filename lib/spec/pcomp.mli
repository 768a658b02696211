(** P-compositional splitting of keyed histories (Horn & Kroening).

    For specification classes whose state is a product of independent
    per-key components and whose operations each touch exactly the key in
    their integer argument ([Set], [Dictionary]), a history is linearizable
    iff every per-key projection is (Herlihy & Wing locality, one object per
    key). Each projection is checked against the specification with a fresh
    {!Lin_check} memo table.

    Operations without an integer argument ([Count], [IsEmpty], [Clear])
    couple the keys; their presence makes the split unsound, so it is
    refused and the caller falls back to the generic search. *)

(** [renumber evs] rewrites per-thread [op_index] values to be contiguous
    from 0 in event order, keeping each call paired with its return via the
    original index. Event order — hence precedence — is untouched. Needed
    whenever a subsequence of a history's events (a per-key projection, a
    streaming chunk) is turned back into a well-formed {!History.t}. *)
val renumber : Lineup_history.Event.t list -> Lineup_history.Event.t list

(** [split h] partitions the history by the integer argument of each
    operation, or returns [None] if some operation has none. Parts are
    returned in increasing key order; each is a well-formed (non-stuck)
    history whose events keep their relative order, so precedence within a
    part agrees with precedence in [h]. *)
val split :
  Lineup_history.History.t -> (int * Lineup_history.History.t) list option

(** [check spec h] — accept iff every per-key part linearizes against
    [spec] (whose initial state may have been advanced over a test's init
    sequence). [Unsupported] when the history cannot be split or a part
    exceeds the {!Lin_check} operation limit. *)
val check : 'st Spec.t -> Lineup_history.History.t -> Spec.verdict
