(** Opt-in NDJSON event tracing.

    When enabled ({!enable}), every {!emit} appends one JSON object per
    line to the trace file:

    {v {"t":0.001234,"ev":"pool.job_done","index":3,"domain":1,"kept":true} v}

    [t] is seconds since {!enable}; [ev] names the event; the remaining
    fields are event-specific (see the schema table in README.md).

    Unlike the {!Metrics} summary, the trace is {e explicitly
    non-deterministic}: events carry wall-clock timestamps and interleave in
    completion order, so two runs — or the same run at different [-j]
    values — produce different streams. It is the raw material for latency
    and queue-depth analysis, not for byte-identity checks.

    The sink is global and mutex-protected, so emitting from worker domains
    is safe. When disabled (the default), {!emit} is a single atomic load —
    cheap enough to leave call sites unconditioned on hot-ish paths (one
    event per execution, not per step). *)

type field =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val enabled : unit -> bool

val enable : path:string -> unit
(** Open (truncate) [path] and start the clock. Replaces any previous
    sink (closing it). The first call installs an [at_exit] hook that
    closes the sink, so orderly-but-abnormal exits (uncaught exception,
    [exit] from a worker process) never lose buffered events. *)

val close : unit -> unit
(** Flush and close the sink; subsequent {!emit}s are no-ops. Idempotent.
    Call only after worker domains have been joined — an emit racing a
    close may be dropped. *)

val emit : string -> (string * field) list -> unit
(** [emit ev fields] — append one event line; no-op when disabled. The
    line is flushed before [emit] returns: a process killed mid-run
    leaves a trace file that parses line-by-line, missing at most the
    event being written at the instant of the kill. [Float] fields render
    with six decimal places; non-finite floats (nan, ±inf) render as
    [null] so every emitted line is valid JSON. *)

val line : t:float -> string -> (string * field) list -> string
(** [line ~t ev fields] is the line {!emit} appends for [ev] at [t]
    seconds, without its newline: [{"t":…,"ev":…] with [t] to six
    decimal places, then [fields] in order. Pure. *)

val with_trace : path:string option -> (unit -> 'a) -> 'a
(** [with_trace ~path f] runs [f] with tracing enabled when [path] is
    [Some] (closing the sink afterwards, even on exceptions); with [None]
    it is just [f ()]. *)
