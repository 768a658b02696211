(** The [lineup monitor] driver. Under [Block] the calling domain reads
    the NDJSON stream a chunk at a time and feeds one engine; under
    [Shed] a reader domain parses it into a bounded {!Ingest} queue that
    the calling domain drains into that engine. Keyed classes (set,
    dictionary) check each key as its own object inside the one engine.
    Only {!replay} spreads work over domains, one history per task, via
    {!Lineup_parallel.Pool}. *)

type opts = {
  domains : int;
      (** {!replay}'s fan-out over histories; a live {!run} checks on the
          calling domain whatever its value *)
  min_batch : int;  (** window threshold of the fast engines *)
  max_window : int;  (** quiescence bound before [Unsupported] *)
  queue_cap : int;  (** ingest queue bound under [Shed]; [Block] has no queue *)
  on_full : Ingest.policy;  (** backpressure policy at the bound *)
  report_every : int;  (** progress tick interval in events; 0 = off *)
  follow : bool;
      (** re-arm the reader on EOF instead of finalizing: an EOF on a FIFO
          only means every current writer closed, so the monitor waits for
          the next writer session. A followed run ends by verdict
          ([Reject] / [Unsupported]), never by stream end. *)
}

val default_opts : opts
(** 1 domain, [min_batch] 512, [max_window] 1_048_576, queue 65536,
    [Block], no ticks, no follow. *)

type outcome = {
  verdict : Lineup_spec.Monitor.verdict;
  ops : int;  (** completed operations checked *)
  sheds : int;  (** operations dropped under the [Shed] policy *)
  windows : int;  (** window / chunk checks performed *)
  resident_peak : int;
      (** max retained engine state, sampled every 256 fed events and at
          the end of the stream until a verdict settles: a function of the
          events fed alone *)
}

val run :
  spec:Lineup_spec.Spec.packed ->
  opts:opts ->
  ?metrics:Lineup_observe.Metrics.t ->
  in_channel ->
  outcome
(** Monitor one live stream until EOF or a settled verdict (verdicts are
    sticky, so a [Reject] stops the run early and abandons the rest of
    the stream). A malformed line settles the verdict as [Unsupported];
    nothing after it is fed. *)

val replay :
  spec:Lineup_spec.Spec.packed ->
  opts:opts ->
  ?metrics:Lineup_observe.Metrics.t ->
  in_channel ->
  (int option * Lineup_spec.Monitor.verdict) list * outcome
(** Replay a finite recording (e.g. a [lineup check --trace] file):
    events are grouped by their [hist] tag in first-appearance order and
    each group is monitored as an independent session, fanned out across
    [opts.domains]. Returns the per-history verdicts plus the combined
    outcome ([Reject] if any history rejects, else the first
    [Unsupported], else [Accept]) — the contract the CI equivalence gate
    checks against the offline verdict. *)
