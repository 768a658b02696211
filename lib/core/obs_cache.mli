(** On-disk caching of phase-1 observation sets.

    §4.1 of the paper: "The set of observed serial histories Z is recorded
    in a file (called the observation file)" — the two phases are separate
    CHESS invocations communicating through that file, which also serves
    regression testing (re-checking a changed implementation against the
    previously recorded specification).

    The cache key combines a format version, a fingerprint of the phase-1
    exploration configuration, the adapter name and the full test content —
    so neither a changed test nor a changed exploration config (a different
    step budget can record a {e smaller} observation set) ever reuses a
    stale specification. The same version + fingerprint are stamped on the
    file's root element and re-verified on load, beside the MD5 digest of
    the file's content (the document without the root's attributes); a
    mismatch (e.g. a file renamed or edited by hand, a damaged file, or a
    hash collision across schemes) or a file that does not parse counts as
    stale, is evicted, and phase 1 re-runs. Files are written atomically.
    Cached files are the Fig. 7 XML format, hence human-readable and
    diffable.

    [metrics], where accepted, counts [obs_cache.hit], [obs_cache.miss] and
    [obs_cache.stale] (evictions: embedded-stamp and digest mismatches,
    unparseable files, plus files left by the pre-versioned key scheme), in
    addition to the counters recorded by the underlying {!Check} calls. *)

(** [phase1 ?config ?metrics ~dir adapter test] returns the observation set
    for [test], loading it from [dir] when present and valid, and running +
    recording phase 1 otherwise. [dir] is created recursively on first
    write; concurrent creation by parallel workers is tolerated. [Error]
    propagates a phase-1 violation (possible only on a cache miss; a cached
    file of a deterministic run stays deterministic). The [bool] is [true]
    on a cache hit. *)
val phase1 :
  ?config:Check.config ->
  ?metrics:Lineup_observe.Metrics.t ->
  dir:string ->
  Adapter.t ->
  Test_matrix.t ->
  (Observation.t * bool, Check.violation) result

(** [check ?config ?cancelled ?metrics ~dir adapter test] — [Check.run]
    with the phase-1 result cached in [dir]. A hit runs phase 2 over the
    cached set; a miss is one [Check.run], counted as the uncached run
    plus [obs_cache.miss], and saves the observation set once phase 1
    completed. *)
val check :
  ?config:Check.config ->
  ?cancelled:(unit -> bool) ->
  ?metrics:Lineup_observe.Metrics.t ->
  dir:string ->
  Adapter.t ->
  Test_matrix.t ->
  Check.result

(** The cache file used for a given config/adapter/test triple (inside
    [dir]). [config] defaults to {!Check.default_config}; only its phase-1
    part is keyed. [version] (default: the current format version; at
    least 2) names the file an earlier format version used for the same
    key; on a miss, {!phase1} evicts each of those it finds, counted in
    [obs_cache.stale]. *)
val cache_path :
  ?version:int -> ?config:Check.config -> dir:string -> Adapter.t -> Test_matrix.t -> string

(** The key parts shared with the shard checkpoints ([Lineup_shard.Store]):
    [test_key test] is the full test content (init, columns, final) as
    text; [explore_fingerprint c] the exploration mode, preemption bound and
    step and execution budgets of [c]. *)
val test_key : Test_matrix.t -> string

val explore_fingerprint : Lineup_scheduler.Explore.config -> string
