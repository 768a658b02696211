(** Location names with a numeric suffix.

    Objects under test are rebuilt for every execution and location ids
    restart at 0 each time, so the same small numbers are printed again and
    again. These helpers print them without [Int.to_string]'s formatted
    conversion. *)

(** [digits i] is [Int.to_string i], shared for [0 <= i < 256]. *)
val digits : int -> string

(** [indexed base i] is [base ^ digits i]. *)
val indexed : string -> int -> string
