(** The checkpointed run directory of a sharded sweep.

    Layout:
    {v
    RUNDIR/
      manifest          format version + configuration fingerprint
      phase1.bin        observation set (Fig. 7 XML) + phase-1 report
      frontier.bin      encoded decision prefixes + warm-up statistics
      parts/
        0007.part       one completed partition result (Check.p2_partition)
      shard-stats.json  progress counters of the last server run
      sock              default Unix-domain listening socket
    v}

    Every data file carries the same discipline {!Lineup.Obs_cache} uses:
    a header line with the format version and a second line with the
    fingerprint of (check configuration, adapter name, test content). A
    file whose header does not match the current run is stale — it is
    ignored (and never merged), so a run directory can {e only} resume the
    exact sweep that wrote it. The marshaled payload after the header is
    sealed behind its digest ({!Sealed}): a corrupt payload counts as
    stale too, and its partition runs again. Writes go through a temp
    file + atomic rename: a checkpoint either exists completely or not at
    all, and a server killed mid-write never corrupts the directory. *)

val format_version : int

(** [fingerprint ~config ~adapter ~test] keys the run: both exploration
    configs (including [por] and the preemption bound), the dedup and
    classic flags, the frontier depth, the adapter name and the full test
    content. Anything that could change the frontier, a partition's result,
    or the merge is covered. *)
val fingerprint :
  config:Lineup.Check.config -> adapter:string -> test:Lineup.Test_matrix.t -> string

(** [init_dir ~dir ~fingerprint] prepares [dir] for a fresh sweep:
    creates it (recursively) if missing, evicts stale data files
    (mismatched header) {e and} any previous partition checkpoints, and
    writes the manifest. *)
val init_dir : dir:string -> fingerprint:string -> unit

(** [validate_dir ~dir ~fingerprint] checks that [dir] holds a resumable
    run of this exact sweep. *)
val validate_dir : dir:string -> fingerprint:string -> (unit, string) result

val save_phase1 :
  dir:string ->
  fingerprint:string ->
  observation_xml:string ->
  Lineup.Check.phase_report ->
  unit

val load_phase1 :
  dir:string -> fingerprint:string -> (string * Lineup.Check.phase_report) option

val save_frontier :
  dir:string -> fingerprint:string -> Lineup_scheduler.Explore.frontier -> unit

(** [None] when absent, stale, or any stored prefix fails to decode —
    never a partially trusted frontier. *)
val load_frontier :
  dir:string -> fingerprint:string -> Lineup_scheduler.Explore.frontier option

val save_part : dir:string -> fingerprint:string -> Lineup.Check.p2_partition -> unit

(** All valid partition checkpoints, deduplicated by partition index
    (first wins); stale, corrupt or undecodable files are skipped. *)
val load_parts : dir:string -> fingerprint:string -> Lineup.Check.p2_partition list

val stats_path : dir:string -> string
