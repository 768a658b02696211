(** The bounded queue between the reader domain and the checking loop of
    [lineup monitor --on-full shed], which drops whole operations under
    load.

    A call arriving at a full queue is dropped together with its eventual
    return, and a {!item.Shed_op} marker carrying both events is delivered
    in its place (markers bypass the bound, which sheds only shrink).
    Dropping whole ops keeps the stream well-formed; the engines degrade
    accept-lean on each marker, so a violation verdict remains trustworthy
    while some violations involving shed values may be missed.

    Under [Block] (the default) the checking domain reads the stream
    itself, so the producer waits whenever the engines are behind, and
    there is no queue. *)

type policy =
  | Block  (** never drop; apply backpressure to the producer *)
  | Shed  (** drop whole operations while the queue is full *)

type item =
  | Ev of { hist : int option; event : Lineup_history.Event.t }
  | Shed_op of {
      call : Lineup_history.Event.t;
      ret : Lineup_history.Event.t;
    }  (** an operation dropped under [Shed] — both its events *)
  | Bad of string  (** malformed input line; the stream is corrupt *)

type t

val create : ?cap:int -> unit -> t
(** [cap] (default 65536) bounds the queued items. *)

val push_line : t -> Mevent.line -> unit
(** Reader side. [Blank]/[Skip] lines are discarded, [Malformed] is
    forwarded as {!item.Bad}; events are queued, or shed while the queue
    is full. Never blocks after {!abandon}. Single reader only. *)

val pop_batch : t -> max:int -> item list
(** Consumer side: blocks until at least one item or {!close}; returns at
    most [max] items, and [[]] only when the queue is closed and fully
    drained. *)

val close : t -> unit
(** Reader side, at end of stream: wake the consumer for the final drain. *)

val abandon : t -> unit
(** Consumer side, on early stop: mark the queue dead so the reader never
    blocks again (its pushes become no-ops) and wake everyone. *)

val sheds : t -> int
(** Operations dropped so far (reader side). *)

val depth : t -> int
(** Current queue occupancy, for periodic stats. *)
