(** Atomic whole-file writes (tmp + rename).

    Shared by every file this stack publishes for other processes to read
    — the {!Metrics} summary, the shard checkpoints — so that a process
    killed mid-write can never leave a truncated document behind. *)

val write : path:string -> string -> unit
(** [write ~path contents] writes [contents] to [path] atomically: the
    bytes are staged in [path.tmp.<pid>.<domain>] (same directory, so the rename
    cannot cross filesystems) and renamed into place. Readers observe
    either the old complete file or the new one. On failure the staging
    file is removed and the destination is untouched. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and its missing parents (mode 0o755),
    tolerating a concurrent creation between the existence check and the
    [mkdir]: parallel workers share cache and run directories. *)
