module Invocation = Lineup_history.Invocation
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics

(* Bumped whenever the on-disk format or the key scheme changes; stamped
   into both the file name and the root element, so files written by an
   older scheme are never silently reused. Version 3: each group lists its
   histories in first-added order rather than sorted, so a cache hit
   probes the witness candidates in the same order as a fresh run.
   Version 4: the root element also carries the content's [digest]. *)
let format_version = 4

(* The MD5 of an observation file's content: the document rendered with
   the root element's own attributes (the stamps and this digest) left
   out. A file whose content no longer matches is not trusted, however
   well it parses: one changed [result] or one dropped [<history>] would
   otherwise be a different specification. *)
let content_digest = function
  | Xml.Element (tag, _, children) ->
    Digest.to_hex (Digest.string (Xml.to_string (Xml.Element (tag, [], children))))
  | Xml.Text _ as t -> Digest.to_hex (Digest.string (Xml.to_string t))

let test_key (test : Test_matrix.t) =
  let col invs = String.concat ";" (List.map Invocation.to_string invs) in
  String.concat "|"
    (col test.init
     :: Array.to_list (Array.map col test.columns)
     @ [ col test.final ])

let explore_fingerprint (c : Explore.config) =
  let mode = match c.Explore.mode with Explore.Serial -> "serial" | Explore.Concurrent -> "concurrent" in
  let opt = function None -> "-" | Some n -> string_of_int n in
  String.concat ","
    [ mode; opt c.Explore.preemption_bound; string_of_int c.Explore.max_steps;
      opt c.Explore.max_executions ]

(* Only the phase-1 exploration config shapes the observation set: the
   cached file is a phase-1 artifact, and keying on phase-2 settings would
   needlessly miss when only the bound changes. *)
let config_fingerprint config =
  let c =
    let conf : Check.config = Option.value config ~default:Check.default_config in
    conf.phase1
  in
  Digest.to_hex (Digest.string (explore_fingerprint c))

(* Every version from 2 on keys the file name this way, with its own
   number. *)
let cache_path ?(version = format_version) ?config ~dir (adapter : Adapter.t) test =
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            [
              string_of_int version; config_fingerprint config; adapter.Adapter.name; test_key test;
            ]))
  in
  Filename.concat dir (Fmt.str "%s.xml" digest)

(* The pre-version-2 key: adapter + test only. Looked up on a miss, with
   the names every earlier keyed version gave the same key, so a cache
   directory written by an older scheme is evicted rather than leaking
   files forever. *)
let legacy_cache_path ~dir (adapter : Adapter.t) test =
  let digest =
    Digest.to_hex (Digest.string (adapter.Adapter.name ^ "\x00" ^ test_key test))
  in
  Filename.concat dir (Fmt.str "%s.xml" digest)

let mincr metrics k = match metrics with Some m -> Metrics.incr m k | None -> ()

let phase1 ?config ?metrics ~dir adapter test =
  let path = cache_path ?config ~dir adapter test in
  let fingerprint = config_fingerprint config in
  let version = string_of_int format_version in
  let cached =
    if not (Sys.file_exists path) then None
    else
      match
        let root = Xml.of_string (In_channel.with_open_bin path In_channel.input_all) in
        let stamp k = Xml.attr_opt root k in
        if
          stamp "version" = Some version
          && stamp "fingerprint" = Some fingerprint
          && stamp "digest" = Some (content_digest root)
        then Some (Observation_file.of_xml root)
        else None
      with
      | Some _ as histories -> histories
      | None | (exception (Invalid_argument _ | Sys_error _)) ->
        (* same file name but written under a different format/config, not
           a whole observation file (cut short by a kill under an older
           writer), or content that no longer matches its digest: evict,
           don't trust *)
        mincr metrics "obs_cache.stale";
        (try Sys.remove path with Sys_error _ -> ());
        None
  in
  match cached with
  | Some histories -> begin
    mincr metrics "obs_cache.hit";
    match Observation_file.observation_of_histories histories with
    | Ok obs -> Ok (obs, true)
    | Error (s1, s2) -> Error (Check.Nondeterministic (s1, s2))
  end
  | None -> begin
    mincr metrics "obs_cache.miss";
    let evict old =
      if Sys.file_exists old then begin
        mincr metrics "obs_cache.stale";
        try Sys.remove old with Sys_error _ -> ()
      end
    in
    evict (legacy_cache_path ~dir adapter test);
    for version = 2 to format_version - 1 do
      evict (cache_path ~version ?config ~dir adapter test)
    done;
    match Check.synthesize ?config ?metrics adapter test with
    | Ok (obs, _report) ->
      Lineup_observe.Atomic_file.mkdir_p dir;
      Observation_file.save
        ~root_attrs:
          [
            "version", version;
            "fingerprint", fingerprint;
            "digest", content_digest (Observation_file.to_xml obs);
          ]
        ~path obs;
      Ok (obs, false)
    | Error (Check.Fail v, _report) -> Error v
    | Error ((Check.Pass | Check.Cancelled), _report) ->
      (* no cancellation token is passed above, so synthesize cannot be
         cancelled, and [Pass] never occurs on the error side *)
      assert false
  end

let check ?config ?cancelled ?metrics ~dir adapter test =
  match phase1 ?config ?metrics ~dir adapter test with
  | Ok (observation, _hit) -> Check.run ?config ?cancelled ?metrics ~observation adapter test
  | Error _ ->
    (* a phase-1 violation (cached or fresh): run uncached so the result
       reflects the current implementation *)
    Check.run ?config ?cancelled ?metrics adapter test
