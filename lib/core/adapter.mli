(** The black-box interface between Line-Up and an implementation under
    test.

    Line-Up needs nothing from an implementation beyond the ability to
    create a fresh instance and invoke named operations on it — no source
    code, no annotations (the paper's automation claim). An adapter packages
    those two capabilities plus the invocation universe [I_o] used by the
    automatic test generators (Section 3.4).

    Implementations must be written against [Lineup_runtime] so the model
    checker can control their scheduling; [create] runs before the test
    threads start (effects serviced inline) and may perform initialization
    operations. *)

type instance = {
  invoke : Lineup_history.Invocation.t -> Lineup_value.Value.t;
}

type t = {
  name : string;
  universe : Lineup_history.Invocation.t list;
      (** the enumeration [I_o = {i1, i2, ...}] of representative
          invocations; order matters for [Auto_check]'s [I_n] prefixes *)
  spec : Lineup_spec.Spec.packed option;
      (** optional declared sequential specification, serially equivalent to
          the implementation. Purely an acceleration hint: when present,
          [--membership auto] may decide a complete phase-2 history with the
          engine of the spec's class (the queue/stack monitors, the per-key
          set/dictionary engine) instead of the generic witness search.
          Verdicts must not depend on it — the membership equivalence and
          cross-validation tests enforce that. [None] always means the
          generic search. *)
  create : unit -> instance;
}

val make :
  name:string ->
  universe:Lineup_history.Invocation.t list ->
  ?spec:Lineup_spec.Spec.packed ->
  (unit -> instance) ->
  t

(** [invocation adapter name] finds the first universe invocation with the
    given operation name. Raises [Not_found] if absent. *)
val invocation : t -> string -> Lineup_history.Invocation.t
