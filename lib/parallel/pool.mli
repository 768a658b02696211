(** A domain-based work pool for fanning independent check jobs out across
    cores.

    The paper's evaluation burned ~11 CPU-days precisely because every
    [Check(X, m)] run is an independent, from-scratch re-execution — §4.3:
    random sampling "is embarrassingly parallel: it is very easy to
    distribute the various tests and let each core run Check independently".
    This pool is the one piece of machinery behind every parallel entry
    point ([Auto_check.run ~domains], [Random_check.run_parallel], the CLI
    [-j] flag).

    Design constraints, all load-bearing for the checker:

    - {b Lazy feeding.} Jobs are pulled from a ['a Seq.t] on demand through
      a bounded queue, so an enormous (or infinite) test enumeration such as
      [Test_matrix.enumerate] is never forced up front.
    - {b Deterministic output.} Results are returned in job-submission
      order, regardless of completion order. Together with the cancellation
      rule below, a [map_seq] at [~domains:8] returns {e exactly} the list
      that [~domains:1] returns.
    - {b First-stop early cancellation.} When a result satisfies [stop],
      jobs {e later} in submission order are cancelled: queued ones are
      dropped, in-flight ones see their [cancelled] token flip and are
      expected to bail at their next execution boundary; their results are
      discarded. Jobs {e earlier} in submission order are never cancelled
      and always run to completion — otherwise the earliest stopping result
      (the one a sequential run would report) could be lost. *)

(** A cancellation token, polled by a job at its execution boundaries.
    Returns [true] once some job earlier in submission order produced a
    stopping result, at which point the job's own result will be discarded
    and it should return as cheaply as possible. *)
type cancelled = unit -> bool

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the default for every [-j]. *)

val map_seq :
  ?domains:int ->
  ?stop:('b -> bool) ->
  f:(cancelled:cancelled -> 'a -> 'b) ->
  'a Seq.t ->
  'b list
(** [map_seq ~domains ~stop ~f jobs] runs [f] over [jobs] on [domains]
    domains (default [1]: fully sequential on the calling domain, no spawn)
    and returns the results in submission order.

    At most [2 * domains] jobs are materialized from [jobs] ahead of the
    workers.

    If some result satisfies [stop] (default: never), the returned list is
    the prefix of results up to and including the {e earliest} stopping
    result in submission order; the enumeration is not pulled further and
    later in-flight jobs are cancelled (see above). The prefix is identical
    for every [domains] value.

    If [f] raises, the exception is treated like a stopping result
    (cancelling later jobs) and the earliest exception in submission order
    is re-raised on the calling domain once the workers have drained. *)
