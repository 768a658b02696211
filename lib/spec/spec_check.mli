(** Spec-specialized phase-2 membership: one query, one {!Spec.verdict}.

    A query is a complete history (Definition 1) or the [H[e]] of a stuck
    history (Definition 2); a stuck history is judged by running
    {!Spec.first_unjustified} over [decide]. Dispatch ladder, driven by the
    declared {!Spec.cls} of the adapter's specification:

    - complete query, class [Queue]/[Stack], no init sequence → the
      decrease-and-conquer {!Monitor};
    - complete query, class [Set]/[Dictionary] → the P-compositional
      per-key splitter {!Pcomp} (each part checked by {!Lin_check} with a
      fresh memo table);
    - anything the specialized checks refuse — and, with [force_spec], an
      [H[e]] or a query with pending calls — the direct Wing–Gong search
      {!Lin_check.decide};
    - otherwise [Unsupported]: the caller must fall back to the generic
      observation search.

    A test's [init] sequence is folded into the specification's initial
    state first ({!Spec.advance}); the monitors additionally require an
    empty init (they assume the structure starts empty).

    This layer only ever {e consumes} histories the exploration already
    produced — it cannot perturb schedule enumeration, so history counts
    and fingerprints are identical across membership modes by construction. *)

type meth =
  | Monitor_check  (** decided by a class monitor *)
  | Pcomp_check  (** decided by the per-key splitter *)
  | Direct_check  (** decided by the direct Wing–Gong search *)

(** [decide ?force_spec packed_spec ~init q]. With [force_spec] (the
    [--membership monitor] mode) queries outside the monitored fragment
    are checked by the direct search instead of being handed back; without
    it (the [auto] mode) only the near-linear specialized checks answer.
    The returned method is [None] iff the verdict is [Unsupported]. *)
val decide :
  ?force_spec:bool ->
  Spec.packed ->
  init:Lineup_history.Invocation.t list ->
  Lineup_history.History.t ->
  Spec.verdict * meth option
