(** The shard server: runs phase 1 and the frontier warm-up locally, fans
    the partitions out to worker processes over the {!Wire} protocol,
    checkpoints every completed partition into the run directory, and
    merges in canonical frontier order.

    Determinism contract: the final {!Lineup.Check.result}, its rendered
    report and the metrics registry are byte-identical to the in-process
    frontier path ([lineup check -j N]) — for any worker count, any
    completion order, any number of worker crashes and retries, and any
    number of kill/[--resume] cycles (see DESIGN.md). *)

type stats = {
  mutable s_partitions : int;  (** frontier size *)
  mutable s_dispatched : int;  (** tasks sent to workers this server run *)
  mutable s_completed : int;  (** results received this server run *)
  mutable s_checkpoint_hits : int;  (** partitions restored from [parts/], not re-explored *)
  mutable s_retries : int;  (** re-dispatches after a worker died or failed *)
  mutable s_workers : int;  (** distinct worker connections accepted *)
}

type outcome =
  | Report of Lineup.Check.result  (** the sweep completed and merged *)
  | Halted of int
      (** [--halt-after] fired after this many checkpoints: the run
          directory is durable, no verdict was produced (exit code 2) *)
  | Failed_run of string  (** operational failure (bad directory, workers kept dying) *)

val recv_deadline : float
(** 2 s: how long a worker may fall silent inside a frame. A worker that
    starts a frame and stops for longer is dropped, and its partition is
    re-dispatched and counted in [s_retries]; the time a partition takes
    is not bounded. *)

(** [run ~dir ~adapter ~test ()] drives one sweep.

    [listen] (default [DIR/sock]) is a Unix-domain path or ["host:port"].
    [local] spawns that many [shard-worker --connect] child processes of
    the current executable. [resume] loads phase 1, the frontier and all
    valid partition checkpoints from [dir] instead of recomputing;
    [halt_after] stops the server (without merging) after that many
    checkpoint writes — the deterministic "kill" used by the CI resume
    smoke test. [max_retries] bounds re-dispatches per partition.

    Progress goes to stderr; nothing is printed to stdout. Each completed
    run (including a halted one) writes [DIR/shard-stats.json]. *)
val run :
  ?config:Lineup.Check.config ->
  ?metrics:Lineup_observe.Metrics.t ->
  ?listen:string ->
  ?local:int ->
  ?resume:bool ->
  ?halt_after:int ->
  ?max_retries:int ->
  dir:string ->
  adapter:Lineup.Adapter.t ->
  test:Lineup.Test_matrix.t ->
  unit ->
  outcome
