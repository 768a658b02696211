(** Discrete interval encoding of an int set.

    Purely functional; [add] and [mem] are O(log k) in the number of
    stored intervals, not the number of members. The streaming monitors
    ({!Monitor.Stream}) use these to retain "values ever inserted /
    removed" over unbounded streams with bounded memory: real
    producers draw values from counters or small pools, so the interval
    count stays tiny even after millions of operations. *)

type t

val empty : t
val is_empty : t -> bool

val mem : int -> t -> bool

val add : int -> t -> t
(** Insert one value, merging with adjacent intervals. Safe at the
    [min_int]/[max_int] boundaries. *)

val intervals : t -> (int * int) list
(** Inclusive [(lo, hi)] intervals in increasing order. *)

val interval_count : t -> int
(** Number of stored intervals — the memory footprint, for stats. *)
