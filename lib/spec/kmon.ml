module History = Lineup_history.History
module Event = Lineup_history.Event
module Invocation = Lineup_history.Invocation
module Value = Lineup_value.Value

(* Chunked feasible-state monitoring for specification classes without a
   decrease-and-conquer engine: sets and dictionaries (sharded per key via
   P-compositionality: Horn & Kroening, "Faster linearizability checking
   via P-compositionality" — when every operation touches exactly the key
   of its integer argument and the specification state is a product of
   independent per-key components, Herlihy & Wing locality applies with
   each key read as its own object), and any other spec as a single
   stream.

   Per key, events accumulate into a chunk; at each per-key quiescent point
   (no pending call on that key) with at least [chunk] completed
   operations, the chunk is closed and checked with the Wing–Gong search —
   not for a yes/no answer but for the full set of reachable final states
   ({!Lin_check.final_states}), unioned over every state the previous
   chunks could have left the object in. Because a key's chunks are
   separated by quiescent points, every operation of chunk [i] really-time
   precedes every operation of chunk [i+1]; any witness therefore
   linearizes chunk [i] entirely before chunk [i+1], so the stream is
   linearizable iff each chunk linearizes from some feasible state of its
   predecessor. The feasible set becoming empty is exactly a violation.

   Degradation is structured, never wrong: a chunk that cannot close within
   [max_window] operations, a feasible set larger than [max_feasible], or
   vocabulary outside the spec surfaces as [Unsupported].

   Implemented as a record of closures so one existential spec type ['st]
   stays hidden inside [create]. *)

type t = {
  feed : Event.t -> unit;
  flush : unit -> unit;
  verdict_now : unit -> Spec.verdict option;
  finalize : unit -> Spec.verdict;
  ops : unit -> int;
  chunks : unit -> int;
  resident : unit -> int;
}

let max_feasible = 64

(* A key's chunk drops the other keys' operations, so per-thread
   [op_index] values are no longer contiguous; renumber them (keeping
   call/return paired via the original index) to satisfy [History.make]
   well-formedness. Event order — hence precedence — is untouched. *)
let renumber evs =
  let next : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let assigned : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  List.map
    (fun (ev : Event.t) ->
      let id = ev.Event.tid, ev.Event.op_index in
      let idx =
        match Hashtbl.find_opt assigned id with
        | Some i -> i
        | None ->
          let i = Option.value ~default:0 (Hashtbl.find_opt next ev.Event.tid) in
          Hashtbl.replace next ev.Event.tid (i + 1);
          Hashtbl.replace assigned id i;
          i
      in
      { ev with Event.op_index = idx })
    evs

type 'st kstate = {
  mutable feasible : 'st list;
  mutable chunk : Event.t list; (* reversed *)
  mutable chunk_ops : int; (* completed ops in [chunk] *)
  mutable kpending : int;
}

let create : type st. st Spec.t -> keyed:bool -> chunk:int -> max_window:int -> t =
 fun spec ~keyed ~chunk ~max_window ->
  let chunk = max 1 chunk in
  let max_window = max 1 max_window in
  let keys : (int, st kstate) Hashtbl.t = Hashtbl.create 16 in
  let op_key : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let verdict : Spec.verdict option ref = ref None in
  let n_ops = ref 0 in
  let n_chunks = ref 0 in
  let settle v = if !verdict = None then verdict := Some v in
  let kstate_of k =
    match Hashtbl.find_opt keys k with
    | Some ks -> ks
    | None ->
      let ks = { feasible = [ spec.Spec.initial ]; chunk = []; chunk_ops = 0; kpending = 0 } in
      Hashtbl.add keys k ks;
      ks
  in
  (* Union of final states over every feasible entry state, one
     representative per state_key, in sorted key order for determinism. *)
  let step_feasible ks h =
    let out : (string, st) Hashtbl.t = Hashtbl.create 16 in
    let degraded = ref None in
    List.iter
      (fun st ->
        if !degraded = None then
          match Lin_check.final_states { spec with Spec.initial = st } h with
          | `Unsupported reason -> degraded := Some reason
          | `States sts ->
            List.iter
              (fun st' ->
                let key = spec.Spec.state_key st' in
                if not (Hashtbl.mem out key) then Hashtbl.add out key st')
              sts)
      ks.feasible;
    match !degraded with
    | Some reason -> Error reason
    | None ->
      Ok
        (Hashtbl.fold (fun k st acc -> (k, st) :: acc) out []
        |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
        |> List.map snd)
  in
  let close_chunk ks =
    incr n_chunks;
    let h = History.make ~stuck:false (renumber (List.rev ks.chunk)) in
    ks.chunk <- [];
    ks.chunk_ops <- 0;
    match step_feasible ks h with
    | Error reason -> settle (Spec.Unsupported reason)
    | Ok [] -> settle Spec.Reject
    | Ok sts ->
      if List.length sts > max_feasible then
        settle
          (Spec.Unsupported
             (Fmt.str "feasible-state explosion (over %d states)" max_feasible))
      else ks.feasible <- sts
  in
  let key_of (inv : Invocation.t) =
    if not keyed then Some 0
    else match inv.Invocation.arg with Value.Int k -> Some k | _ -> None
  in
  let feed (ev : Event.t) =
    if !verdict = None then begin
      let id = ev.Event.tid, ev.Event.op_index in
      match ev.Event.dir with
      | Event.Call inv -> (
        if Hashtbl.mem op_key id then
          settle
            (Spec.Unsupported
               (Fmt.str "duplicate call for operation (%d, %d)" ev.Event.tid
                  ev.Event.op_index))
        else
          match key_of inv with
          | None ->
            settle
              (Spec.Unsupported
                 (Fmt.str "operation %s without an integer key"
                    inv.Invocation.name))
          | Some k ->
            Hashtbl.replace op_key id k;
            let ks = kstate_of k in
            ks.kpending <- ks.kpending + 1;
            ks.chunk <- ev :: ks.chunk;
            if ks.chunk_ops + ks.kpending > max_window then
              settle
                (Spec.Unsupported
                   (Fmt.str "no quiescent point within %d operations" max_window)))
      | Event.Return _ -> (
        match Hashtbl.find_opt op_key id with
        | None ->
          settle
            (Spec.Unsupported
               (Fmt.str "return without call for operation (%d, %d)"
                  ev.Event.tid ev.Event.op_index))
        | Some k ->
          Hashtbl.remove op_key id;
          let ks = kstate_of k in
          ks.kpending <- ks.kpending - 1;
          ks.chunk <- ev :: ks.chunk;
          ks.chunk_ops <- ks.chunk_ops + 1;
          incr n_ops;
          if ks.kpending = 0 && ks.chunk_ops >= chunk then close_chunk ks)
    end
  in
  (* A key with no pending call is at a quiescent point, where [feed] may
     already close its chunk: closing it here only brings a verdict
     forward. *)
  let flush () =
    Hashtbl.iter
      (fun _ ks -> if !verdict = None && ks.kpending = 0 && ks.chunk_ops > 0 then close_chunk ks)
      keys
  in
  let finalize () =
    match !verdict with
    | Some v -> v
    | None ->
      (* Leftover chunks may carry pending calls (the stream ended
         mid-operation); [History.make] allows them and the Wing–Gong
         search completes or drops them, so the final check is the plain
         membership question from any feasible state. *)
      let unsupported = ref None in
      let rejected = ref false in
      let check_key _k ks =
        if ks.chunk <> [] && not !rejected then begin
          let h = History.make ~stuck:false (renumber (List.rev ks.chunk)) in
          let key_unsupported = ref None in
          let ok =
            List.exists
              (fun st ->
                match Lin_check.decide { spec with Spec.initial = st } h with
                | Spec.Accept -> true
                | Spec.Reject -> false
                | Spec.Unsupported reason ->
                  if !key_unsupported = None then key_unsupported := Some reason;
                  false)
              ks.feasible
          in
          if not ok then
            (* No feasible state linearizes the leftover: a definite
               violation, unless part of the search was cut short — then
               the honest answer for this key is Unsupported. *)
            match !key_unsupported with
            | None -> rejected := true
            | Some reason -> if !unsupported = None then unsupported := Some reason
        end
      in
      Hashtbl.iter check_key keys;
      let v =
        if !rejected then Spec.Reject
        else
          match !unsupported with
          | Some reason -> Spec.Unsupported reason
          | None -> Spec.Accept
      in
      verdict := Some v;
      v
  in
  {
    feed;
    flush;
    verdict_now = (fun () -> !verdict);
    finalize;
    ops = (fun () -> !n_ops);
    chunks = (fun () -> !n_chunks);
    resident =
      (fun () ->
        Hashtbl.fold
          (fun _ ks acc ->
            acc + List.length ks.chunk + List.length ks.feasible)
          keys 0
        + Hashtbl.length op_key);
  }

let create_packed (Spec.Packed spec) ~keyed ~chunk ~max_window =
  create spec ~keyed ~chunk ~max_window
