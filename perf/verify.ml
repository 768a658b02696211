(* [main.exe verify-references]: re-derive every committed reference along
   a path independent of the one the benchmark times, and report any that
   no longer holds. Reduced explorations are re-derived unreduced (same
   bound, no --por), shard sweeps by the in-process [-j 2] run, and the
   regression tests' failures with the generic membership search. *)

open Workloads

let derive item =
  match item.kind with
  | Check c ->
    let phase2 = { c.config.Check.phase2 with Explore.por = false } in
    let m = Metrics.create () in
    let r = Check.run ~config:{ c.config with Check.phase2 } ~metrics:m c.adapter c.test in
    r, m
  | Sweep (c, _) ->
    let m = Metrics.create () in
    j_run c ~domains:2 m, m
  | Stream _ -> invalid_arg "verify: streams have no committed reference"

let committed_items () =
  let envs =
    List.concat_map
      (fun smoke ->
        [
          Suite.por_check ~seed:1 ~smoke;
          Suite.weak_memory ~seed:1 ~smoke;
          Suite.shard_sweep ~seed:1 ~smoke;
        ])
      [ false; true ]
  in
  let seen = Hashtbl.create 16 in
  List.concat_map (fun env -> env.items) envs
  |> List.filter (fun item ->
         let keep =
           List.mem_assoc item.label References.committed && not (Hashtbl.mem seen item.label)
         in
         Hashtbl.replace seen item.label ();
         keep)

let run () =
  let bad = ref 0 in
  let report label ok detail =
    if not ok then incr bad;
    Printf.printf "%-28s %-5s %s\n%!" label (if ok then "ok" else "WRONG") detail
  in
  List.iter
    (fun item ->
      let r, m = derive item in
      let executions = phase2_executions r in
      let distinct = lineup_counter m "histories_distinct" in
      let fingerprint = lineup_counter m "histories_fingerprint" in
      let want = List.assoc item.label References.committed in
      let derived =
        {
          References.verdict =
            (match r.Check.verdict with Check.Pass -> References.Pass | _ -> References.Fail);
          distinct = Option.map (fun _ -> distinct) want.References.distinct;
          fingerprint = Option.map (fun _ -> fingerprint) want.References.fingerprint;
          executions = Option.map (fun _ -> executions) want.References.executions;
        }
      in
      report item.label (derived = want)
        (Printf.sprintf "verdict %s, distinct %d, fingerprint %d, executions %d"
           (verdict_name r.Check.verdict) distinct fingerprint executions))
    (committed_items ());
  List.iter
    (fun item ->
      match item.kind with
      | Check c ->
        let config = { c.config with Check.membership = Check.Generic } in
        let r = Check.run ~config c.adapter c.test in
        report item.label (Check.failed r) ("generic membership: " ^ verdict_name r.Check.verdict)
      | Stream _ | Sweep _ -> ())
    (Suite.regression_items ());
  if !bad > 0 then begin
    Printf.printf "%d reference(s) do not hold\n" !bad;
    exit 1
  end
