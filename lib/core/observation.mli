(** Observation sets — the synthesized sequential specification of phase 1.

    An observation set holds the full serial histories [A] and the stuck
    serial histories [B] recorded for one finite test (Fig. 5, lines 2–3),
    organized two ways:

    - an incremental {e determinism trie} detecting, as histories are added,
      any pair whose longest common prefix ends in a call (Fig. 5, line 4).
      Its edges are keyed by thread and typed invocation, and it doubles
      as the duplicate set: a full history ends at a marked node, a stuck
      one in its blocked edge, so one walk per history both checks
      determinism and recognizes a duplicate;
    - indexes keyed by per-thread operation sequences — the grouping of the
      observation-file format (Fig. 7) — so that the phase-2 witness search
      only examines serial histories whose thread subhistories already match
      the concurrent history. Each key's candidates are probed most recently
      added first. *)

type t

val create : unit -> t

(** [add obs s] records serial history [s] (full or stuck — determined by
    [Serial_history.is_stuck]). Duplicates are ignored. [Error (s1, s2)]
    reports nondeterminism: [s2] is [s], and [s1] an earlier history that
    diverges from it right after a shared invocation prefix. [s] is
    recorded even then, so adding it again is a duplicate. *)
val add :
  t -> Lineup_history.Serial_history.t ->
  (unit, Lineup_history.Serial_history.t * Lineup_history.Serial_history.t) result

val num_full : t -> int
val num_stuck : t -> int

(** [full_histories obs] lists [A] in the order its histories were first
    added. Re-adding them in any order that keeps this relative order
    within each thread key rebuilds every key's candidate list, and so
    every probe count, exactly; the observation file (Fig. 7) writes each
    group in this order. *)
val full_histories : t -> Lineup_history.Serial_history.t list

(** [stuck_histories obs] lists [B] in first-added order, as
    {!full_histories}. *)
val stuck_histories : t -> Lineup_history.Serial_history.t list

(** [witness ?probes obs q] is the phase-2 search of one query: a serial
    witness in [A] of the complete history [q] (Definition 1), or in [B]
    of the [H[e]] [q], whose only pending operation is [e] (Definition 2).
    A stuck history is judged by running [Lineup_spec.Spec.first_unjustified]
    over its [H[e]]s. [probes], when given, is incremented once per
    candidate serial history examined — the witness-search work metric. *)
val witness :
  ?probes:int ref ->
  t -> Lineup_history.History.t -> Lineup_history.Serial_history.t option
