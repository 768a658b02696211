(** The shard socket protocol: length-prefixed [Marshal] frames over a
    Unix-domain or TCP stream.

    Every frame is three 4-byte big-endian words, {!wire_version}, the
    payload length and its bitwise complement, then the payload: the
    marshaled message behind its digest ({!Sealed}). Payloads are pure
    data ({!Lineup.Check.p2_partition} and friends contain no closures),
    so the frames survive a process boundary; they do {e not} survive a
    differing OCaml runtime, which is fine — server and workers are the
    same binary ([--local]) or the same build deployed across machines.

    Receive functions return [None] on a cleanly closed peer, a truncated
    frame, a frame of another wire version, a length that does not match
    its complement (both checked before the payload is read), a length
    above {!max_payload}, a payload whose digest does not match, or an
    undecodable payload — the caller treats all of these as "the peer is
    gone" and re-dispatches. The payload buffer grows as bytes arrive, so
    a corrupt length never allocates much more than was received. *)

(** Bumped on any message or framing change; carried by every frame, so
    peers of different versions cannot read each other's frames. *)
val wire_version : int

(** The largest payload length a frame may claim: 256 MiB. *)
val max_payload : int

(** Everything a worker needs to run partitions: the check configuration,
    the adapter (by registry name — adapters hold closures and cannot
    travel), the test matrix, and the phase-1 observation set as Fig. 7
    XML. [i_fingerprint] is the run's {!Store.fingerprint}, forwarded so
    workers can label diagnostics. *)
type init = {
  i_fingerprint : string;
  i_config : Lineup.Check.config;
  i_adapter : string;
  i_test : Lineup.Test_matrix.t;
  i_observation : string;
}

type to_server =
  | Hello
  | Result of { index : int; part : Lineup.Check.p2_partition }
  | Failed of { index : int; message : string }
      (** the partition could not be run (decode error, adapter exception
          outside the modeled threads); the server re-dispatches or aborts *)

type to_worker =
  | Init of init
  | Task of { index : int; prefix : string }
      (** [prefix] is {!Lineup_scheduler.Explore.prefix_to_string} *)
  | Shutdown

val send_to_server : Unix.file_descr -> to_server -> unit
val send_to_worker : Unix.file_descr -> to_worker -> unit
val recv_to_server : Unix.file_descr -> to_server option
val recv_to_worker : Unix.file_descr -> to_worker option

(** [parse_addr s] — ["host:port"] is a TCP address, anything else a
    Unix-domain socket path. *)
val parse_addr : string -> Unix.sockaddr
