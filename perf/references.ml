(* Known answers the benchmark checks every verdict against. Each is
   independent of the path being timed: the distinct-history counts and
   fingerprints of the reduced (--por) explorations were taken from the
   unreduced exploration of the same test, and the shard sweeps' from the
   in-process [-j 2] run. [main.exe verify-references] re-derives every
   constant below along that independent path. *)

type verdict =
  | Pass
  | Fail
  | Any  (** a seeded-bug class on a random test: either verdict, but a verdict *)

type t = {
  verdict : verdict;
  distinct : int option;  (** [check.phase2.histories_distinct] *)
  fingerprint : int option;  (** [check.phase2.histories_fingerprint] *)
  executions : int option;  (** phase-2 executions, warm-up included *)
}

let verdict v = { verdict = v; distinct = None; fingerprint = None; executions = None }

let histories ~distinct ~fingerprint =
  { verdict = Pass; distinct = Some distinct; fingerprint = Some fingerprint; executions = None }

let sweep ~executions ~fingerprint =
  { verdict = Pass; distinct = None; fingerprint = Some fingerprint; executions = Some executions }

(* Keyed by item label (see workloads.ml). *)
let committed =
  [
    "por/stack-3t-pb1", histories ~distinct:10866 ~fingerprint:5824022447041;
    "por/stack-2t-deep", histories ~distinct:3492 ~fingerprint:1863436282288;
    "por/stack-2t-smoke", histories ~distinct:134 ~fingerprint:71727593082;
    "weak/fenced-tso-pb0", histories ~distinct:21 ~fingerprint:10919306494;
    "weak/fenced-pso-pb0", histories ~distinct:21 ~fingerprint:10919306494;
    "weak/fenced-sc-pb1", histories ~distinct:23 ~fingerprint:11896227140;
    "weak/fence-free-sc-pb1", histories ~distinct:23 ~fingerprint:11896227140;
    "shard/queue", sweep ~executions:39957 ~fingerprint:8402111396594;
    "shard/stack", sweep ~executions:39957 ~fingerprint:9075120159698;
    "shard/queue-smoke", sweep ~executions:420 ~fingerprint:118320893128;
  ]

(* Set by [--corrupt-references]: every reference is replaced by a wrong
   one, so a run must report failures. The smoke test uses it to show the
   oracles can fail. *)
let corrupt = ref false

let flip r =
  let bump = Option.map succ in
  {
    verdict = (match r.verdict with Pass -> Fail | Fail -> Pass | Any -> Any);
    distinct = bump r.distinct;
    fingerprint = bump r.fingerprint;
    executions = bump r.executions;
  }

let apply r = if !corrupt then flip r else r

let find label =
  match List.assoc_opt label committed with
  | Some r -> apply r
  | None -> invalid_arg ("no committed reference for " ^ label)
