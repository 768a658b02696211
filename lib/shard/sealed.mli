(** Marshaled payloads behind a digest: the checkpoint files ({!Store})
    and the wire frames ({!Wire}).

    Unmarshaling corrupt bytes is undefined behaviour. A flipped bit can
    crash the process, raise [Out_of_memory] or decode as a different
    value, instead of failing cleanly. So every payload travels behind the
    MD5 digest ([Digest]) of its bytes, and {!unmarshal} checks the digest
    before [Marshal] reads anything. *)

(** [marshal v] is the digest of [Marshal.to_string v []] followed by
    those bytes. *)
val marshal : 'a -> string

(** [unmarshal s] is the value sealed in [s] by {!marshal}, or [None] when
    the digest does not match or the payload does not decode. Like
    [Marshal], it is not type-safe: the caller states the type it
    expects. *)
val unmarshal : string -> 'a option
