(** Chunked feasible-state streaming monitor for specification classes
    without a decrease-and-conquer engine.

    Events accumulate per key (the integer argument under [~keyed:true],
    a single key otherwise); at each per-key quiescent point with at
    least [chunk] completed operations the chunk closes and the Wing–Gong
    search ({!Lin_check.final_states}) computes the set of states the
    object could be in afterwards, unioned over every feasible entry
    state. Chunks of one key are totally real-time-ordered (a quiescent
    point separates them), so any witness linearizes them in order and
    the stream is linearizable iff every chunk linearizes from some
    feasible state of its predecessor — an empty feasible set is exactly
    a violation. Degradation is structured: a chunk that cannot close
    within [max_window] operations, more than 64 feasible states, or
    off-vocabulary operations answer [Unsupported], never a wrong
    verdict.

    Load shedding permanently degrades the shed operation's key
    (accept-lean: it is excluded from the verdict); other keys are
    unaffected, by P-compositionality. *)

type t = {
  feed : Lineup_history.Event.t -> unit;
  shed : call:Lineup_history.Event.t -> ret:Lineup_history.Event.t -> unit;
  verdict_now : unit -> Spec.verdict option;
  finalize : unit -> Spec.verdict;
  ops : unit -> int;
  sheds : unit -> int;
  chunks : unit -> int;
  resident : unit -> int;
}

val create : 'st Spec.t -> keyed:bool -> chunk:int -> max_window:int -> t
val create_packed : Spec.packed -> keyed:bool -> chunk:int -> max_window:int -> t
