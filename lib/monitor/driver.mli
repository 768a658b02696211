(** The [lineup monitor] driver. The calling domain reads the NDJSON
    stream a chunk at a time and feeds one engine; a producer that outruns
    it waits, and nothing is dropped. Keyed classes (set, dictionary)
    check each key as its own object inside the one engine. Only
    {!replay} spreads work over domains, one history per task, via
    {!Lineup_parallel.Pool}. *)

type opts = {
  domains : int;
      (** {!replay}'s fan-out over histories; a live {!run} checks on the
          calling domain whatever its value *)
  min_batch : int;  (** window threshold of the queue and stack engines *)
  max_window : int;  (** quiescence bound before [Unsupported] *)
  queue_cap : int;
      (** No effect: the queue bound of the retired [--on-full shed] mode,
          kept only because the benchmark harness in [perf/] still sets it;
          it goes when that harness next changes. *)
  report_every : int;  (** progress tick interval in events; 0 = off *)
  follow : bool;
      (** read on at end of input instead of finalizing: a growing file
          may not have grown yet, and on a FIFO it only means every current
          writer closed, so the monitor waits for more. A line cut at end
          of input waits for its rest. At each such pause the engine
          checks what it holds ({!Engine.flush}), so a violation shows
          without waiting for [min_batch] more operations. A followed run
          ends by verdict ([Reject] / [Unsupported]), never by stream
          end. *)
}

val default_opts : opts
(** 1 domain, [min_batch] 512, [max_window] 1_048_576, no ticks, no
    follow. *)

type outcome = {
  verdict : Lineup_spec.Monitor.verdict;
  ops : int;  (** completed operations checked *)
  windows : int;  (** window / chunk checks performed *)
  resident_peak : int;
      (** max retained engine state, sampled every 256 fed events and at
          the end of the stream until a verdict settles: a function of the
          events fed alone (under [follow], also of where the producer
          paused) *)
}

val run :
  spec:Lineup_spec.Spec.packed ->
  opts:opts ->
  ?metrics:Lineup_observe.Metrics.t ->
  in_channel ->
  outcome
(** Monitor one live stream until end of input or a settled verdict
    (verdicts are sticky, so a [Reject] stops the run early and abandons
    the rest of the stream). A malformed line settles the verdict as
    [Unsupported]; nothing after it is fed. *)

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
