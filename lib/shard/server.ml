module Check = Lineup.Check
module Adapter = Lineup.Adapter
module Observation_file = Lineup.Observation_file
module Explore = Lineup_scheduler.Explore

type stats = {
  mutable s_partitions : int;
  mutable s_dispatched : int;
  mutable s_completed : int;
  mutable s_checkpoint_hits : int;
  mutable s_retries : int;
  mutable s_workers : int;
}

type outcome =
  | Report of Check.result
  | Halted of int
  | Failed_run of string

let epr fmt = Fmt.epr ("shard-server: " ^^ fmt ^^ "@.")

let write_stats ~dir ~halted (st : stats) =
  Lineup_observe.Atomic_file.write ~path:(Store.stats_path ~dir)
    (Printf.sprintf
       "{\"schema\": \"lineup-shard-stats/1\", \"partitions\": %d, \"dispatched\": %d, \
        \"completed\": %d, \"checkpoint_hits\": %d, \"retries\": %d, \"workers\": %d, \
        \"halted\": %b}\n"
       st.s_partitions st.s_dispatched st.s_completed st.s_checkpoint_hits st.s_retries
       st.s_workers halted)

(* A worker socket's receive timeout. The server reads only sockets that
   [select] reported readable, so this bounds silence inside a frame, not
   the time a partition takes: a peer that starts a frame and stops reads
   as gone, and its partition is retried. *)
let recv_deadline = 2.0

(* One connected worker. [w_task] is the partition index in flight — on any
   send/receive failure it goes back to the pending queue. *)
type worker = {
  w_fd : Unix.file_descr;
  mutable w_task : int option;
}

(* The socket fan-out over one prepared sweep. Fills [parts] (index →
   checkpointed result) until every partition at or below the current cut
   index is present, [halt_after] fires, or the run fails operationally. *)
let serve ~config ~listen ~local ~halt_after ~max_retries ~dir ~fingerprint ~(st : stats)
    ~adapter ~test ~observation_xml ~prefixes ~parts ~cut ~pending () =
  let nparts = Array.length prefixes in
  let finished () =
    let upper = min !cut (nparts - 1) in
    let ok = ref true in
    for i = 0 to upper do
      if not (Hashtbl.mem parts i) then ok := false
    done;
    !ok
  in
  let written = ref 0 in
  let halt_hit () = match halt_after with Some k -> !written >= k | None -> false in
  let outcome = ref None in
  let fail msg =
    epr "%s" msg;
    if !outcome = None then outcome := Some msg
  in
  let addr_str = match listen with Some a -> a | None -> Filename.concat dir "sock" in
  let sockaddr = Wire.parse_addr addr_str in
  (match sockaddr with
   | Unix.ADDR_UNIX p when Sys.file_exists p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
   | _ -> ());
  (* Close-on-exec, or every local worker inherits the listening socket
     and keeps it open: a worker that connects after the sweep's last
     accept then waits for an Init that never comes, while the server
     waits for it to exit. *)
  let lsock = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock sockaddr;
  Unix.listen lsock 64;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  epr "listening on %s (%d partitions, %d checkpointed)" addr_str nparts (Hashtbl.length parts);
  let children =
    List.init local (fun _ ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "shard-worker"; "--connect"; addr_str |]
          Unix.stdin Unix.stderr Unix.stderr)
  in
  let live_children = ref children in
  let workers : (Unix.file_descr, worker) Hashtbl.t = Hashtbl.create 8 in
  let retries = Hashtbl.create 16 in
  let requeue i =
    let n = (match Hashtbl.find_opt retries i with Some n -> n | None -> 0) + 1 in
    Hashtbl.replace retries i n;
    st.s_retries <- st.s_retries + 1;
    if n > max_retries then fail (Fmt.str "partition %d failed %d times; giving up" i n)
    else if i <= !cut && not (Hashtbl.mem parts i) then
      pending := List.sort Int.compare (i :: !pending)
  in
  let drop_worker w =
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    Hashtbl.remove workers w.w_fd;
    match w.w_task with
    | Some i ->
      w.w_task <- None;
      requeue i
    | None -> ()
  in
  let send w msg =
    try
      Wire.send_to_worker w.w_fd msg;
      true
    with Unix.Unix_error _ | Sys_error _ ->
      drop_worker w;
      false
  in
  (* Lowest pending index first: the merge only waits on indices at or
     below the cut, so converging from the left finishes sweeps with an
     early violation fastest. *)
  let dispatch w =
    match !pending with
    | i :: rest when i <= !cut ->
      pending := rest;
      w.w_task <- Some i;
      if send w (Wire.Task { index = i; prefix = prefixes.(i) }) then
        st.s_dispatched <- st.s_dispatched + 1
    | _ :: _ | [] -> ignore (send w Wire.Shutdown)
  in
  let handle_msg w = function
    | Wire.Hello ->
      if
        send w
          (Wire.Init
             {
               Wire.i_fingerprint = fingerprint;
               i_config = config;
               i_adapter = adapter.Adapter.name;
               i_test = test;
               i_observation = observation_xml;
             })
      then dispatch w
    | Wire.Result { index; part } ->
      w.w_task <- None;
      st.s_completed <- st.s_completed + 1;
      if index < nparts && not (Hashtbl.mem parts index) then begin
        Store.save_part ~dir ~fingerprint part;
        Hashtbl.replace parts index part;
        incr written;
        if Check.partition_stop part && index < !cut then begin
          (* Partitions past the earliest stopping one can never reach the
             merge (the deterministic prefix rule) — stop dispatching them. *)
          cut := index;
          pending := List.filter (fun i -> i <= !cut) !pending
        end
      end;
      if not (halt_hit ()) then dispatch w
    | Wire.Failed { index; message } ->
      w.w_task <- None;
      epr "worker failed on partition %d: %s" index message;
      requeue index;
      dispatch w
  in
  (try
     while !outcome = None && (not (finished ())) && not (halt_hit ()) do
       live_children :=
         List.filter
           (fun pid -> match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false)
           !live_children;
       if local > 0 && !live_children = [] && Hashtbl.length workers = 0 then
         fail "all local workers exited before the sweep completed"
       else begin
         let fds = lsock :: Hashtbl.fold (fun fd _ acc -> fd :: acc) workers [] in
         let readable, _, _ = Unix.select fds [] [] 1.0 in
         List.iter
           (fun fd ->
             if fd == lsock then begin
               let cfd, _ = Unix.accept lsock in
               Unix.setsockopt_float cfd Unix.SO_RCVTIMEO recv_deadline;
               st.s_workers <- st.s_workers + 1;
               Hashtbl.replace workers cfd { w_fd = cfd; w_task = None }
             end
             else
               match Hashtbl.find_opt workers fd with
               | None -> ()
               | Some w -> (
                 match Wire.recv_to_server fd with
                 | None -> drop_worker w
                 | Some msg -> handle_msg w msg))
           readable
       end
     done
   with Unix.Unix_error (e, fn, _) ->
     fail (Fmt.str "socket error: %s in %s" (Unix.error_message e) fn));
  (* Wind down: idle workers get a clean Shutdown; workers mid-flight on a
     no-longer-needed partition see EOF and exit on their next send. *)
  Hashtbl.iter (fun _ w -> if w.w_task = None then ignore (send w Wire.Shutdown)) workers;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) workers;
  (try Unix.close lsock with Unix.Unix_error _ -> ());
  (match sockaddr with
   | Unix.ADDR_UNIX p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
   | _ -> ());
  (* A local worker that has not connected yet would retry for seconds,
     and one mid-flight would finish its partition first: neither result
     is needed any more. *)
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_children;
  match !outcome with
  | Some msg -> Error msg
  | None -> if finished () then Ok `Complete else Ok (`Halted !written)

let run ?(config = Check.default_config) ?metrics ?listen ?(local = 0) ?(resume = false)
    ?halt_after ?(max_retries = 3) ~dir ~adapter ~test () =
  let fingerprint = Store.fingerprint ~config ~adapter:adapter.Adapter.name ~test in
  let st =
    {
      s_partitions = 0;
      s_dispatched = 0;
      s_completed = 0;
      s_checkpoint_hits = 0;
      s_retries = 0;
      s_workers = 0;
    }
  in
  (* Phase 1 + frontier: restored from checkpoints on --resume (with the
     stored counters re-ingested so the metrics registry stays identical
     to an uninterrupted run), recomputed and checkpointed otherwise. *)
  let prepared =
    if resume then
      match Store.validate_dir ~dir ~fingerprint with
      | Error e -> Error e
      | Ok () -> (
        match
          (Store.load_phase1 ~dir ~fingerprint, Store.load_frontier ~dir ~fingerprint)
        with
        | Some (xml, phase1), Some frontier -> (
          match Observation_file.observation_of_histories (Observation_file.of_string xml) with
          | Ok observation ->
            Check.ingest_phase1 ?metrics phase1;
            Ok (`Sweep (observation, xml, phase1, frontier))
          | Error _ ->
            Error "checkpointed observation set is nondeterministic — phase1.bin is corrupt")
        | _ -> Error (Fmt.str "%s has no resumable phase-1/frontier checkpoint" dir))
    else begin
      Store.init_dir ~dir ~fingerprint;
      match Check.synthesize ~config ?metrics adapter test with
      | Error (verdict, phase1) -> Ok (`Phase1_failed (Check.phase1_failed ?metrics verdict phase1))
      | Ok (observation, phase1) ->
        let xml = Observation_file.to_string observation in
        Store.save_phase1 ~dir ~fingerprint ~observation_xml:xml phase1;
        let frontier, _ = Check.split_frontier ~config adapter test in
        Store.save_frontier ~dir ~fingerprint frontier;
        Ok (`Sweep (observation, xml, phase1, frontier))
    end
  in
  match prepared with
  | Error e -> Failed_run e
  | Ok (`Phase1_failed result) -> Report result
  | Ok (`Sweep (observation, observation_xml, phase1, frontier)) -> (
    let prefixes =
      Array.of_list (List.map Explore.prefix_to_string frontier.Explore.prefixes)
    in
    let nparts = Array.length prefixes in
    st.s_partitions <- nparts;
    let parts : (int, Check.p2_partition) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun p ->
        let i = Check.partition_index p in
        if i < nparts && not (Hashtbl.mem parts i) then Hashtbl.replace parts i p)
      (Store.load_parts ~dir ~fingerprint);
    st.s_checkpoint_hits <- Hashtbl.length parts;
    let cut = ref max_int in
    Hashtbl.iter (fun i p -> if Check.partition_stop p && i < !cut then cut := i) parts;
    let pending = ref [] in
    for i = nparts - 1 downto 0 do
      if i <= !cut && not (Hashtbl.mem parts i) then pending := i :: !pending
    done;
    let merge () =
      let plist = Hashtbl.fold (fun _ p acc -> p :: acc) parts [] in
      Report (Check.merge_partitions ?metrics ~observation ~phase1 ~frontier plist)
    in
    if !pending = [] then begin
      (* Everything needed is already checkpointed (e.g. a resume after
         the sweep finished): no sockets, no workers, straight to merge. *)
      write_stats ~dir ~halted:false st;
      merge ()
    end
    else
      match
        serve ~config ~listen ~local ~halt_after ~max_retries ~dir ~fingerprint ~st ~adapter
          ~test ~observation_xml ~prefixes ~parts ~cut ~pending ()
      with
      | Error msg ->
        write_stats ~dir ~halted:false st;
        Failed_run msg
      | Ok (`Halted n) ->
        write_stats ~dir ~halted:true st;
        epr "halted after %d checkpoints; resume with --resume %s" n dir;
        Halted n
      | Ok `Complete ->
        write_stats ~dir ~halted:false st;
        merge ())
