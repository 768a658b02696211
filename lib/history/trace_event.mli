(** The trace's call/return event codec: [lineup check --trace] writes
    it, and [lineup monitor] reads it.

    One event per line, in the {!Lineup_observe.Trace} shape:

    {v
{"t":0.000123,"ev":"call","tid":0,"op":1,"name":"Enqueue","arg":"200"}
{"t":0.000150,"ev":"ret","tid":0,"op":1,"val":"unit"}
    v}

    [arg]/[val] are {!Lineup_value.Value.to_string} images ([arg] omitted
    for [Unit]); the optional [hist] field tags which replayed history an
    event belongs to. Lines with any other [ev] are skipped, so a raw
    check trace replays through the monitor unmodified. *)

type line =
  | Ev of { hist : int option; event : Event.t }
      (** a call or return event *)
  | Skip  (** valid JSON, but not a call/return event — ignored *)
  | Blank  (** empty line — ignored *)
  | Malformed of string  (** not valid input; the stream is corrupt *)

val render : ?hist:int -> ?t:float -> Event.t -> string
(** One NDJSON line (without the trailing newline). [t] defaults to 0.
    It is {!Lineup_observe.Trace.line} of the event's fields, the line
    {!emit} writes. *)

val emit : ?hist:int -> Event.t -> unit
(** Emit the event into the live {!Lineup_observe.Trace} sink (no-op when
    tracing is disabled): {!render}'s line at the sink's clock. *)

val parse : string -> line
(** Classify and decode one input line. Total — never raises.

    One pass over the line, with no JSON tree: the line is accepted
    exactly when the test suite's JSON reader, its oracle ([Ndjson.parse]
    in [test/]), accepts it after [String.trim], a failure reads as that
    reader's message and offset, and a field repeated in the object reads
    as its first occurrence. Only [ev], [tid], [op], [name], [arg], [val]
    and [hist] are decoded. *)

type reader
(** Lines of a channel, read a chunk at a time into one reused buffer. *)

val reader : in_channel -> reader

val read : reader -> (line -> unit) -> bool
(** [read r f] reads once from the channel (blocking until some input or
    end of input) and applies [f], in order, to the {!parse} of every line
    the read completes. A line cut by the read is carried to the next.
    At end of input the result is [false], and a last line without its
    newline stays in [r]: a later [read] tries again and continues it (on
    a growing file, its next bytes; on a FIFO, the next writer's input),
    and {!finish} ends it. Raises [Sys_error] as the channel does. *)

val finish : reader -> (line -> unit) -> unit
(** [finish r f] ends the stream: it applies [f] to the {!parse} of a last
    line without its newline, as [input_line] returns it, if [r] holds
    one. *)
