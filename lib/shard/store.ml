module Check = Lineup.Check
module Test_matrix = Lineup.Test_matrix
module Explore = Lineup_scheduler.Explore
module Invocation = Lineup_history.Invocation

(* Version 2: the memory model entered [explore_fp] (a TSO sweep must never
   resume from an SC checkpoint or vice versa) and [Explore.stats] grew the
   [flushes] counter, changing the marshaled payload shape. Version 3: the
   phase-2 dedup table inside a partition's state became a fingerprint-keyed
   table of histories, changing the marshaled type again. Version 4: bounded
   weak-memory [--por] partitions sleep across flushes, so a partition
   records different execution counts than a version-3 one. *)
let format_version = 4

(* Same shape as Obs_cache's key: every knob that shapes the frontier, a
   partition's exploration, or the membership decisions. [phase2_domains]
   is deliberately absent — it never changes results, and a sweep recorded
   on one machine must resume on another with a different core count. *)
let explore_fp (c : Explore.config) =
  let mode =
    match c.Explore.mode with Explore.Serial -> "serial" | Explore.Concurrent -> "concurrent"
  in
  let opt = function None -> "-" | Some n -> string_of_int n in
  String.concat ","
    [
      mode;
      opt c.Explore.preemption_bound;
      string_of_int c.Explore.max_steps;
      opt c.Explore.max_executions;
      string_of_bool c.Explore.por;
      Lineup_runtime.Memory_model.to_string c.Explore.memory;
    ]

let test_key (test : Test_matrix.t) =
  let col invs = String.concat ";" (List.map Invocation.to_string invs) in
  String.concat "|"
    ((col test.init :: Array.to_list (Array.map col test.columns)) @ [ col test.final ])

let fingerprint ~(config : Check.config) ~adapter ~test =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            string_of_int format_version;
            explore_fp config.Check.phase1;
            explore_fp config.Check.phase2;
            string_of_bool config.Check.classic_only;
            string_of_bool config.Check.dedup_histories;
            Check.membership_name config.Check.membership;
            string_of_int config.Check.phase2_frontier_depth;
            adapter;
            test_key test;
          ]))

(* ---------------- files ---------------- *)

let manifest_path dir = Filename.concat dir "manifest"
let phase1_path dir = Filename.concat dir "phase1.bin"
let frontier_path dir = Filename.concat dir "frontier.bin"
let parts_dir dir = Filename.concat dir "parts"
let part_path dir index = Filename.concat (parts_dir dir) (Fmt.str "%04d.part" index)
let stats_path ~dir = Filename.concat dir "shard-stats.json"
let header fingerprint = Fmt.str "lineup-shard/%d\n%s\n" format_version fingerprint

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

(* Atomic: a reader (or a resumed server) never sees a torn file. *)
let write_file path contents = Lineup_observe.Atomic_file.write ~path contents

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [Some payload-marshal-string] iff the file exists and its header names
   this exact format version and fingerprint. *)
let read_stamped path ~fingerprint =
  if not (Sys.file_exists path) then None
  else
    match read_file path with
    | contents ->
      let h = header fingerprint in
      let hl = String.length h in
      if String.length contents >= hl && String.sub contents 0 hl = h then
        Some (String.sub contents hl (String.length contents - hl))
      else None
    | exception Sys_error _ -> None

let write_stamped path ~fingerprint payload =
  write_file path (header fingerprint ^ payload)

(* ---------------- directory lifecycle ---------------- *)

let remove_parts dir =
  let d = parts_dir dir in
  if Sys.file_exists d && Sys.is_directory d then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d)

let init_dir ~dir ~fingerprint =
  mkdir_p (parts_dir dir);
  (* A fresh sweep never trusts leftovers — neither stale files from a
     different configuration nor checkpoints of a previous identical run
     (those are what [--resume] is for). *)
  remove_parts dir;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ phase1_path dir; frontier_path dir ];
  write_file (manifest_path dir) (header fingerprint)

let validate_dir ~dir ~fingerprint =
  if not (Sys.file_exists dir) then Error (Fmt.str "run directory %s does not exist" dir)
  else if not (Sys.file_exists (manifest_path dir)) then
    Error (Fmt.str "%s is not a shard run directory (no manifest)" dir)
  else if read_file (manifest_path dir) <> header fingerprint then
    Error
      (Fmt.str
         "%s was recorded under a different format version or configuration fingerprint — it \
          cannot resume this sweep"
         dir)
  else Ok ()

(* ---------------- payloads ---------------- *)

let save_phase1 ~dir ~fingerprint ~observation_xml (phase1 : Check.phase_report) =
  write_stamped (phase1_path dir) ~fingerprint
    (Marshal.to_string (observation_xml, phase1) [])

let load_phase1 ~dir ~fingerprint =
  match read_stamped (phase1_path dir) ~fingerprint with
  | None -> None
  | Some payload -> (
    try Some (Marshal.from_string payload 0 : string * Check.phase_report)
    with Failure _ | Invalid_argument _ -> None)

(* Prefixes travel as their textual encoding, the same representation the
   wire protocol uses — a checkpoint is readable (`head frontier.bin`) and
   the decode path is exercised on every resume. *)
let save_frontier ~dir ~fingerprint (frontier : Explore.frontier) =
  let encoded = List.map Explore.prefix_to_string frontier.Explore.prefixes in
  write_stamped (frontier_path dir) ~fingerprint
    (Marshal.to_string (encoded, frontier.Explore.warmup) [])

let load_frontier ~dir ~fingerprint =
  match read_stamped (frontier_path dir) ~fingerprint with
  | None -> None
  | Some payload -> (
    match (Marshal.from_string payload 0 : string list * Explore.stats) with
    | encoded, warmup ->
      let rec decode acc = function
        | [] -> Some (List.rev acc)
        | s :: rest -> (
          match Explore.prefix_of_string s with
          | Ok p -> decode (p :: acc) rest
          | Error _ -> None)
      in
      Option.map
        (fun prefixes -> { Explore.prefixes; warmup })
        (decode [] encoded)
    | exception (Failure _ | Invalid_argument _) -> None)

let save_part ~dir ~fingerprint part =
  write_stamped (part_path dir (Check.partition_index part)) ~fingerprint
    (Marshal.to_string part [])

let load_parts ~dir ~fingerprint =
  let d = parts_dir dir in
  if not (Sys.file_exists d && Sys.is_directory d) then []
  else
    let seen = Hashtbl.create 64 in
    let files = Sys.readdir d in
    Array.sort String.compare files;
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".part" then
          match read_stamped (Filename.concat d f) ~fingerprint with
          | None -> ()
          | Some payload -> (
            match (Marshal.from_string payload 0 : Check.p2_partition) with
            | part ->
              let i = Check.partition_index part in
              if not (Hashtbl.mem seen i) then Hashtbl.replace seen i part
            | exception (Failure _ | Invalid_argument _) -> ()))
      files;
    Hashtbl.fold (fun _ p acc -> p :: acc) seen []
