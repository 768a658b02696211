(** Arrays of instrumented shared cells with per-index locations.

    Each index owns its own {!Shared_var.t} — and therefore its own location
    id — allocated in index order at construction time. The partial-order
    reduction consequently sees accesses to distinct indices as
    non-conflicting (its footprints carry the per-index location), and under
    TSO/PSO each index is its own store-buffer location for PSO unit
    assignment and flush-choice footprints. A whole-array abstraction that
    registered a single location would instead serialize every pair of array
    accesses in the DPOR happens-before relation.

    Cell [i] of an array named [name] is the location named [name ^ string_of_int i],
    matching the naming convention the striped adapters already used, so race
    and flush reports are stable across the migration to this module. *)

type 'a t

(** [init ?volatile ~name n f] allocates [n] cells, cell [i] named
    [name ^ string_of_int i] and initialized to [f i]. Location ids are
    assigned in index order (deterministic across replays). *)
val init : ?volatile:bool -> name:string -> int -> (int -> 'a) -> 'a t

(** [make ?volatile ~name n v] = [init ?volatile ~name n (fun _ -> v)]. *)
val make : ?volatile:bool -> name:string -> int -> 'a -> 'a t

val length : 'a t -> int

(** The underlying cell, for passing to code that works on a single
    {!Shared_var.t} (e.g. wake predicates, footprint declarations). *)
val cell : 'a t -> int -> 'a Shared_var.t

(** Instrumented per-index accessors; see {!Shared_var} for the scheduling,
    logging, and weak-memory semantics of each. *)

val read : 'a t -> int -> 'a
val write : 'a t -> int -> 'a -> unit
val cas : 'a t -> int -> 'a -> 'a -> bool
val exchange : 'a t -> int -> 'a -> 'a
val update : 'a t -> int -> ('a -> 'a) -> 'a
val peek : 'a t -> int -> 'a
val poke : 'a t -> int -> 'a -> unit
