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
  create : unit -> instance;
}

val make :
  name:string ->
  universe:Lineup_history.Invocation.t list ->
  (unit -> instance) ->
  t

(** [invocation adapter name] finds the first universe invocation with the
    given operation name. Raises [Not_found] if absent. *)
val invocation : t -> string -> Lineup_history.Invocation.t
