(** Cheap, deterministic counters for the whole checker stack.

    A {!t} is a registry of named monotone integer counters. Counters are
    plain OCaml increments performed {e outside} the modeled runtime: they
    never execute an effect, never introduce a scheduling point, and never
    read the clock — so collecting them cannot perturb schedule enumeration
    (see DESIGN.md, "Observability").

    Determinism contract: a [t] holds only order-insensitive data (sums of
    ints over a deterministic job set), and {!to_json} renders it with
    sorted keys and a fixed format. Consequently merging the per-job
    registries of a parallel run in submission order — or any order —
    produces byte-identical output for every [-j] value. Wall-clock
    timings are deliberately excluded; they live in the {!Trace} stream,
    which is explicitly non-deterministic.

    A [t] is {e not} thread-safe: use one registry per domain (the parallel
    entry points create one per job) and {!merge_into} them on the calling
    domain. *)

type t

val create : unit -> t
(** An empty registry. *)

val add : t -> string -> int -> unit
(** [add t key n] adds [n] to counter [key], creating it (even for [n = 0]
    — registering a key with [add t key 0] pins it into the output schema
    regardless of whether it ever fires). *)

val incr : t -> string -> unit
(** [incr t key] = [add t key 1]. *)

val get : t -> string -> int
(** Current value; [0] for an unregistered key. *)

val merge_into : into:t -> t -> unit
(** Pointwise addition of every counter of the second registry into
    [into]. Addition commutes, so any merge order yields the same totals. *)

val to_assoc : t -> (string * int) list
(** All counters, sorted by key. *)

val to_json : t -> string
(** The metrics summary as a stable JSON document:
    [{"schema": "lineup-metrics/7", "counters": { ... sorted keys ... }}].
    Byte-identical for equal counter contents. *)

val write_file : t -> path:string -> unit
(** Write {!to_json} to [path] atomically (staged in a sibling temporary
    file, then renamed — see {!Atomic_file}). A process killed mid-write
    leaves either the previous complete summary or none, never a
    truncated JSON document. *)

(**/**)

val json_string : string -> string
(** JSON string literal with escaping. *)

val add_json_string : Buffer.t -> string -> unit
(** {!json_string} appended to a buffer — what {!Trace} writes keys and
    strings with. *)
