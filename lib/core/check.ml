module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history
module Op = Lineup_history.Op
module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics
module Trace = Lineup_observe.Trace
module Spec = Lineup_spec.Spec

type membership = Generic

type config = {
  phase1 : Explore.config;
  phase2 : Explore.config;
  classic_only : bool;
  dedup_histories : bool;
  membership : membership;
  phase2_domains : int option;
  phase2_frontier_depth : int;
}

let default_config =
  {
    phase1 = Explore.serial_config;
    phase2 = Explore.default_config;
    classic_only = false;
    dedup_histories = true;
    membership = Generic;
    phase2_domains = None;
    phase2_frontier_depth = 4;
  }

let config_with ?preemption_bound ?max_executions ?(classic_only = false) ?phase2_domains
    ?(frontier_depth = default_config.phase2_frontier_depth) ?(por = false)
    ?(memory = Lineup_runtime.Memory_model.Sc) () =
  let phase2 = default_config.phase2 in
  let phase2 =
    match preemption_bound with
    | Some pb -> { phase2 with Explore.preemption_bound = pb }
    | None -> phase2
  in
  let phase2 =
    match max_executions with
    | Some cap -> { phase2 with Explore.max_executions = cap }
    | None -> phase2
  in
  (* POR and the memory model apply to phase 2 only: phase 1's serial
     enumeration is the specification synthesis and must see every serial
     order (§4.3) — and the sequential specification is memory-model
     independent, so it always runs SC. *)
  let phase2 = { phase2 with Explore.por; memory } in
  {
    default_config with
    phase2;
    classic_only;
    phase2_domains;
    phase2_frontier_depth = frontier_depth;
  }

let memory config = config.phase2.Explore.memory

type violation =
  | Nondeterministic of Serial_history.t * Serial_history.t
  | No_witness of History.t
  | Stuck_unjustified of History.t * Op.t
  | Thread_exception of { tid : int; message : string }

type verdict =
  | Pass
  | Fail of violation
  | Cancelled

type phase_report = {
  stats : Explore.stats;
  histories : int;
  time : float;
}

type analysis = {
  a_name : string;
  a_render : string;
  a_violation : bool;
  a_metrics : (string * int) list;
}

type result = {
  verdict : verdict;
  observation : Observation.t;
  phase1 : phase_report;
  phase2 : phase_report option;
  analyses : analysis list;
}

let passed r = match r.verdict with Pass -> true | Fail _ | Cancelled -> false
let failed r = match r.verdict with Fail _ -> true | Pass | Cancelled -> false
let cancelled r = match r.verdict with Cancelled -> true | Pass | Fail _ -> false

let pp_violation ppf = function
  | Nondeterministic (s1, s2) ->
    Fmt.pf ppf
      "@[<v>nondeterministic serial behavior:@,  %a@,  %a@]"
      Serial_history.pp s1 Serial_history.pp s2
  | No_witness h ->
    Fmt.pf ppf "@[<v>non-linearizable history (no serial witness):@,%a@]" History.pp h
  | Stuck_unjustified (h, op) ->
    Fmt.pf ppf
      "@[<v>stuck history with unjustified pending operation %a:@,%a@]" Op.pp op History.pp h
  | Thread_exception { tid; message } ->
    Fmt.pf ppf "operation on thread %d raised: %s" tid message

let exception_of (outcome : Explore.exec_outcome) =
  match outcome.errors with
  | [] -> None
  | (tid, e) :: _ -> Some (Thread_exception { tid; message = Printexc.to_string e })

(* Monotonic, not wall-clock: phase durations must not jump when NTP
   adjusts the system clock. *)
let now () = Lineup_observe.Monotonic.now ()

let never_cancelled () = false

(* Counter ingestion. All values are sums of ints over a deterministic job
   set, so per-job registries merge to -j-independent totals; wall-clock
   stays out of the metrics and goes to the trace stream instead. *)
let mincr metrics k = match metrics with Some m -> Metrics.incr m k | None -> ()

let trace_phase phase (report : phase_report) =
  if Trace.enabled () then
    Trace.emit ("check." ^ phase)
      [
        "histories", Trace.Int report.histories;
        "executions", Trace.Int report.stats.Explore.executions;
        "dt", Trace.Float report.time;
      ]

let ingest_phase1 ?metrics (phase1 : phase_report) =
  (match metrics with
   | Some m ->
     Pipeline.add_explore_stats m ~prefix:"phase1" phase1.stats;
     Metrics.add m "check.phase1.histories" phase1.histories
   | None -> ());
  trace_phase "phase1" phase1

(* Every check ends by counting itself and its verdict. *)
let count_run metrics verdict =
  mincr metrics "check.runs";
  match verdict with
  | Pass -> mincr metrics "check.passes"
  | Fail _ -> mincr metrics "check.violations"
  | Cancelled -> mincr metrics "check.cancelled"

let phase1_failed ?metrics verdict phase1 =
  count_run metrics verdict;
  { verdict; observation = Observation.create (); phase1; phase2 = None; analyses = [] }

(* Phase 1: enumerate serial executions, synthesize the specification. *)
let synthesize ?(config = default_config) ?(cancelled = never_cancelled) ?metrics adapter test =
  let observation = Observation.create () in
  let p1_start = now () in
  let p1_violation = ref None in
  let p1_interrupted = ref false in
  let p1_stats =
    Harness.run_phase config.phase1 ~adapter ~test ~on_history:(fun r ->
        if cancelled () then begin
          p1_interrupted := true;
          `Stop
        end
        else
        match exception_of r.outcome with
        | Some v ->
          p1_violation := Some v;
          `Stop
        | None -> (
          let serial =
            match Serial_history.of_history r.history with
            | Some s -> s
            | None ->
              Fmt.failwith "Check: phase 1 produced a non-serial history:@ %a" History.pp
                r.history
          in
          match Observation.add observation serial with
          | Ok () -> `Continue
          | Error (s1, s2) ->
            p1_violation := Some (Nondeterministic (s1, s2));
            `Stop))
  in
  let phase1 =
    {
      stats = p1_stats;
      histories = Observation.num_full observation + Observation.num_stuck observation;
      time = now () -. p1_start;
    }
  in
  ingest_phase1 ?metrics phase1;
  match !p1_violation with
  | Some v -> Error (Fail v, phase1)
  | None ->
    if !p1_interrupted then Error (Cancelled, phase1) else Ok (observation, phase1)

(* ------------------------------------------------------------------ *)
(* Phase 2 checking                                                    *)
(* ------------------------------------------------------------------ *)

let fp_mask = 0x3FFF_FFFF_FFFF (* 46 bits: summable without overflow on 63-bit ints *)

let history_fingerprint h =
  Hashtbl.hash_param 256 256 (History.events h, History.is_stuck h) land fp_mask

(* The phase-2 dedup table. Each history is hashed once, by its fingerprint:
   the fingerprint picks the bucket and, for a new history, is also its
   contribution to [fp_acc]. The fingerprint reads a bounded prefix of the
   history, so histories that share one collide; [History.equal] decides. *)
module Distinct = struct
  module Fp = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash fp = fp
  end)

  type t = History.t list Fp.t

  let create n : t = Fp.create n

  let add (seen : t) h =
    let fp = history_fingerprint h in
    let bucket = Option.value ~default:[] (Fp.find_opt seen fp) in
    if List.exists (History.equal h) bucket then None
    else begin
      Fp.replace seen fp (h :: bucket);
      Some fp
    end
end

(* The Line-Up phase-2 history check, expressed as an analyzer so that the
   pipeline can drive it — alone (a plain [run]) or alongside the §5.6
   comparison checkers ([compare]) — over a single exploration. One state
   exists per frontier partition (each partition job runs on its own
   domain or process, so the cells and the dedup table are never shared;
   states merge in frontier order, first violation winning). *)
type p2_state = {
  mutable found : violation option;
  mutable histories : int;
  mutable dedup_hits : int;
  mutable witness_searches : int;
  witness_probes : int ref;
  mutable stuck_checks : int;
  stuck_probes : int ref;
  (* Order-independent fingerprint of the distinct-history set: a masked
     sum of structural hashes, merged by addition, so it is identical
     across [-j] modes and — when the reduction is sound — across
     [por] on/off. The equivalence tests compare it. *)
  mutable fp_acc : int;
  (* Distinct histories seen: schedules frequently reproduce the same
     event sequence, and the witness verdict only depends on the history,
     so each distinct one is checked once. (Scoped to this state — the
     parallel path may re-check a history that also occurs in another
     partition.) *)
  seen : Distinct.t;
}

let p2_init () =
  {
    found = None;
    histories = 0;
    dedup_hits = 0;
    witness_searches = 0;
    witness_probes = ref 0;
    stuck_checks = 0;
    stuck_probes = ref 0;
    fp_acc = 0;
    seen = Distinct.create 256;
  }

(* Distinct-history ids for the event trace, unique across worker domains.
   The trace stream is documented non-deterministic, so ids need not be
   dense or ordered — only distinct, to keep replayed histories apart. *)
let trace_hist_counter = Atomic.make 0

(* Membership of one distinct history: Definition 1 on a complete history,
   Definition 2 on a stuck one, both over the observation search. *)
let p2_decide config ~observation st h =
  let stuck = History.is_stuck h in
  (* Emit each distinct complete history's events before deciding it, so
     a rejecting history is always in the trace and [lineup monitor
     --replay] on the trace file reproduces the verdict (the replay rows
     of test/test_goldens.ml's equivalence table). Stuck histories are
     skipped: replay covers the complete-history fragment. *)
  if Trace.enabled () && (not stuck) && History.is_complete h then begin
    let id = Atomic.fetch_and_add trace_hist_counter 1 in
    List.iter (Lineup_history.Trace_event.emit ~hist:id) (History.events h)
  end;
  let violation =
    if not stuck then begin
      st.witness_searches <- st.witness_searches + 1;
      if Option.is_some (Observation.witness ~probes:st.witness_probes observation h) then None
      else Some (No_witness h)
    end
    else if config.classic_only then None
    else begin
      st.stuck_checks <- st.stuck_checks + 1;
      let decide q =
        if Option.is_some (Observation.witness ~probes:st.stuck_probes observation q) then
          Spec.Accept
        else Spec.Reject
      in
      Option.map (fun (e, _) -> Stuck_unjustified (h, e)) (Spec.first_unjustified decide h)
    end
  in
  match violation with
  | None -> `Continue
  | Some v ->
    st.found <- Some v;
    `Done

let p2_step config ~observation st (r : Harness.run_result) =
  match exception_of r.outcome with
  | Some v ->
    st.found <- Some v;
    `Done
  | None -> (
    let fresh =
      if config.dedup_histories then Distinct.add st.seen r.history
      else Some (history_fingerprint r.history)
    in
    match fresh with
    | None ->
      st.dedup_hits <- st.dedup_hits + 1;
      `Continue
    | Some fp ->
      st.histories <- st.histories + 1;
      st.fp_acc <- (st.fp_acc + fp) land fp_mask;
      p2_decide config ~observation st r.history)

let p2_merge a b =
  {
    found = (match a.found with Some _ -> a.found | None -> b.found);
    histories = a.histories + b.histories;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    witness_searches = a.witness_searches + b.witness_searches;
    witness_probes = ref (!(a.witness_probes) + !(b.witness_probes));
    stuck_checks = a.stuck_checks + b.stuck_checks;
    stuck_probes = ref (!(a.stuck_probes) + !(b.stuck_probes));
    fp_acc = (a.fp_acc + b.fp_acc) land fp_mask;
    seen = Distinct.create 1;
  }

let p2_counters st =
  [
    "histories_distinct", st.histories;
    "dedup_hits", st.dedup_hits;
    "witness_searches", st.witness_searches;
    "witness_probes", !(st.witness_probes);
    "stuck_checks", st.stuck_checks;
    "stuck_probes", !(st.stuck_probes);
    "histories_fingerprint", st.fp_acc;
    "violation", (if st.found = None then 0 else 1);
  ]

(* One identity for every Line-Up state: the pipeline merges and projects
   states by it, and a shard merge repacks marshaled states under it. *)
let lineup_id : p2_state Stdlib.Type.Id.t = Stdlib.Type.Id.make ()

(* The Line-Up analyzer over states already stepped elsewhere: what a shard
   merge repacks partition states as. Only [lineup_analyzer] steps. *)
module Lineup_state = struct
  type state = p2_state

  let id = lineup_id
  let name = "lineup"
  let needs_log = false
  let init = p2_init
  let step _ _ = invalid_arg "Check: a merged Line-Up state is not stepped"
  let merge = p2_merge
  let metrics = p2_counters

  let render st =
    match st.found with
    | None -> Fmt.str "line-up: no violation in %d distinct histories\n" st.histories
    | Some v -> Fmt.str "line-up: %a\n" pp_violation v

  let violation st = st.found <> None
end

let lineup_analyzer config ~observation =
  let module A = struct
    include Lineup_state

    let step st r = p2_step config ~observation st r
  end in
  Analyzer.T (module A)

(* The Line-Up analyzer is always attached first. *)
let lineup_state packs = Option.get (Analyzer.project (List.hd packs) lineup_id)

let analysis_of pack =
  {
    a_name = (let (Analyzer.Packed ((module A), _)) = pack in A.name);
    a_render = Analyzer.render pack;
    a_violation = Analyzer.violation pack;
    a_metrics = Analyzer.metrics pack;
  }

(* The tail of every completed phase 2, local run and shard merge alike. *)
let finish ?metrics ~observation ~phase1 ~p2_start (rep : Pipeline.report) =
  let st = lineup_state rep.packs in
  let phase2 = { stats = rep.stats; histories = st.histories; time = now () -. p2_start } in
  trace_phase "phase2" phase2;
  let verdict =
    match st.found with
    | Some v -> Fail v
    | None -> if rep.interrupted then Cancelled else Pass
  in
  count_run metrics verdict;
  {
    verdict;
    observation;
    phase1;
    phase2 = Some phase2;
    analyses = List.map analysis_of (List.tl rep.packs);
  }

(* ------------------------------------------------------------------ *)
(* Multi-process sharding: serializable phase-2 partitions              *)
(* ------------------------------------------------------------------ *)

(* One frontier partition's phase-2 result, self-contained and free of
   closures so it can be marshaled across a process boundary or to a
   checkpoint file. [pp_state.seen] is emptied before shipping: the dedup
   table is partition-local working state, and nothing downstream of the
   merge reads it (matching [p2_merge], which discards it too). *)
type p2_partition = {
  pp_index : int;
  pp_state : p2_state;
  pp_stats : Explore.stats;
  pp_done : bool;  (** the Line-Up analyzer reported [`Done] (violation found) *)
  pp_interrupted : bool;
}

let partition_index p = p.pp_index
let partition_stop p = p.pp_done || p.pp_interrupted
let partition_executions p = p.pp_stats.Explore.executions

let split_frontier ?(config = default_config) ?cancelled adapter test =
  Pipeline.frontier ?cancelled config.phase2 ~depth:config.phase2_frontier_depth ~adapter ~test

let run_partition ?(config = default_config) ?cancelled ~observation ~index ~prefix adapter test =
  let p =
    Pipeline.run_partition ?cancelled config.phase2
      ~analyzers:[ lineup_analyzer config ~observation ]
      ~adapter ~test ~index ~prefix
  in
  {
    pp_index = index;
    pp_state = { (lineup_state p.pt_packs) with seen = Distinct.create 1 };
    pp_stats = p.pt_stats;
    pp_done = p.pt_all_done;
    pp_interrupted = p.pt_interrupted;
  }

let merge_partitions ?metrics ?(warmup_interrupted = false) ~observation ~phase1
    ~(frontier : Explore.frontier) partitions =
  let p2_start = now () in
  let repack p =
    {
      Pipeline.pt_index = p.pp_index;
      pt_stats = p.pp_stats;
      pt_packs = [ Analyzer.Packed ((module Lineup_state), p.pp_state) ];
      pt_all_done = p.pp_done;
      pt_interrupted = p.pp_interrupted;
    }
  in
  Pipeline.merge ?metrics ~warmup_interrupted
    ~analyzers:[ Analyzer.T (module Lineup_state) ]
    frontier (List.map repack partitions)
  |> finish ?metrics ~observation ~phase1 ~p2_start

let run ?(config = default_config) ?(cancelled = never_cancelled) ?metrics ?observation
    ?(analyzers = []) adapter test =
  let phase1_result =
    match observation with
    | Some obs ->
      let histories = Observation.num_full obs + Observation.num_stuck obs in
      mincr metrics "check.phase1.skipped";
      Ok (obs, { stats = Explore.empty_stats; histories; time = 0.0 })
    | None -> synthesize ~config ~cancelled ?metrics adapter test
  in
  let run_pipeline analyzers =
    Pipeline.run ?domains:config.phase2_domains ~frontier_depth:config.phase2_frontier_depth
      ~cancelled ?metrics config.phase2 ~analyzers ~adapter ~test ()
  in
  match phase1_result with
  | Error (verdict, phase1) ->
    (* Attached analyzers still get their single exploration of the
       concurrent schedules: a failed synthesis is a Line-Up verdict, not a
       reason to drop the race/serializability findings of [compare]. *)
    let analyses =
      if analyzers = [] then [] else List.map analysis_of (run_pipeline analyzers).packs
    in
    { (phase1_failed ?metrics verdict phase1) with analyses }
  | Ok (observation, phase1) ->
    (* Phase 2: enumerate concurrent executions once, drive the Line-Up
       analyzer — plus any attached extra analyzers — over each. *)
    let p2_start = now () in
    run_pipeline (lineup_analyzer config ~observation :: analyzers)
    |> finish ?metrics ~observation ~phase1 ~p2_start

(* Both phases' statistics of one check. *)
let result_stats r =
  match r.phase2 with
  | None -> r.phase1.stats
  | Some p2 -> Explore.merge_stats r.phase1.stats p2.stats

let run_seq ?config ?domains ?metrics ?(stop_at_first = false) adapter tests =
  let results =
    Lineup_parallel.Pool.map_seq ?domains
      ~stop:(fun (_, r, _) -> stop_at_first && failed r)
      ~f:(fun ~cancelled test ->
        (* Per-job registry, returned with the result: the pool discards
           cancelled and post-stop jobs wholesale, so only the kept prefix
           contributes counters, whatever [domains]. *)
        let jm = Option.map (fun _ -> Metrics.create ()) metrics in
        test, run ?config ~cancelled ?metrics:jm adapter test, jm)
      tests
  in
  Option.iter
    (fun m -> List.iter (fun (_, _, jm) -> Option.iter (Metrics.merge_into ~into:m) jm) results)
    metrics;
  ( List.map (fun (test, r, _) -> test, r) results,
    List.fold_left
      (fun acc (_, r, _) -> Explore.merge_stats acc (result_stats r))
      Explore.empty_stats results )
