module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history
module Witness = Lineup_history.Witness

(* ------------------------------------------------------------------ *)
(* Determinism trie                                                    *)
(* ------------------------------------------------------------------ *)

(* Nodes are reached by a common prefix of completed operations. At each
   node, each invocation (by thread) must have a unique continuation —
   either a unique response (with a child node) or "blocked". A second
   distinct continuation for the same invocation is exactly the paper's
   nondeterminism: two histories whose longest common prefix ends in a
   call.

   Within one test a node has at most one edge per thread, since the prefix
   fixes each thread's next invocation: the edges are a short list, matched
   on the thread id, then on the typed invocation.

   The trie is also the duplicate set of the histories it accepted: a full
   history is its path plus the [full_end] flag of the node it reaches, a
   stuck history its path plus the [Went_stuck] edge that ends it. *)

type node = {
  mutable edges : slot list;
  mutable full_end : bool;  (* a recorded full history ends here *)
}

and slot = {
  tid : int;
  inv : Invocation.t;
  rep : Serial_history.t;  (* the history that created the slot, for reports *)
  cont : cont;
}

and cont =
  | Responded of Value.t * node
  | Went_stuck

let new_node () = { edges = []; full_end = false }

let rec find_slot tid inv = function
  | [] -> None
  | slot :: rest ->
    if slot.tid = tid && Invocation.equal slot.inv inv then Some slot else find_slot tid inv rest

type walk =
  | Fresh
  | Seen
  | Conflict of Serial_history.t  (* the conflicting slot's [rep] *)

(* Follow [s] from the root, creating the slots it lacks. The walk stops at
   the first slot committed to a different continuation; it creates no slot
   before that, since a fresh slot's node is empty. *)
let trie_insert root (s : Serial_history.t) =
  let rec go node = function
    | [] -> (
      match s.stuck with
      | None ->
        if node.full_end then Seen
        else begin
          node.full_end <- true;
          Fresh
        end
      | Some (tid, inv) -> (
        match find_slot tid inv node.edges with
        | None ->
          node.edges <- { tid; inv; rep = s; cont = Went_stuck } :: node.edges;
          Fresh
        | Some { cont = Went_stuck; _ } -> Seen
        | Some { rep; cont = Responded _; _ } -> Conflict rep))
    | (e : Serial_history.entry) :: rest -> (
      match find_slot e.tid e.inv node.edges with
      | None ->
        let child = new_node () in
        let slot = { tid = e.tid; inv = e.inv; rep = s; cont = Responded (e.resp, child) } in
        node.edges <- slot :: node.edges;
        go child rest
      | Some { cont = Responded (v, child); _ } when Value.equal v e.resp -> go child rest
      | Some { rep; _ } -> Conflict rep)
  in
  go root s.entries

(* ------------------------------------------------------------------ *)
(* Observation sets                                                    *)
(* ------------------------------------------------------------------ *)

module Key = Hashtbl.Make (struct
  type t = Witness.key

  let equal = Witness.key_equal
  let hash = Witness.key_hash
end)

(* One kind of history (full or stuck). Each indexed serial history carries
   its witness positions, computed once here rather than on every probe;
   each key's candidates are most recently added first. *)
type group = {
  mutable count : int;
  mutable recorded : Serial_history.t list;  (* most recent first *)
  index : (Serial_history.t * Witness.positions) list ref Key.t;
}

type t = {
  trie : node;
  full : group;
  stuck : group;
  mutable conflicted : Serial_history.Set.t;
      (* histories recorded with an [Error]: the trie never holds them *)
}

let new_group () = { count = 0; recorded = []; index = Key.create 64 }

let create () =
  {
    trie = new_node ();
    full = new_group ();
    stuck = new_group ();
    conflicted = Serial_history.Set.empty;
  }

let record obs s =
  let g = if Serial_history.is_stuck s then obs.stuck else obs.full in
  g.count <- g.count + 1;
  g.recorded <- s :: g.recorded;
  let key, pos = Witness.index s in
  match Key.find_opt g.index key with
  | Some l -> l := (s, pos) :: !l
  | None -> Key.add g.index key (ref [ s, pos ])

(* A conflicting history is recorded too, once, as a duplicate set would:
   its re-add walks into the same conflict and must read as seen. *)
let add obs s =
  match trie_insert obs.trie s with
  | Seen -> Ok ()
  | Fresh ->
    record obs s;
    Ok ()
  | Conflict rep ->
    if Serial_history.Set.mem s obs.conflicted then Ok ()
    else begin
      obs.conflicted <- Serial_history.Set.add s obs.conflicted;
      record obs s;
      Error (rep, s)
    end

let num_full obs = obs.full.count
let num_stuck obs = obs.stuck.count
let full_histories obs = List.rev obs.full.recorded
let stuck_histories obs = List.rev obs.stuck.recorded

(* The index lookup settles condition 2 (equal thread keys), so a probe is
   condition 3 alone, on [q] prepared once. *)
let witness ?probes obs q =
  let g = if History.is_stuck q then obs.stuck else obs.full in
  let key, events = Witness.prepare q in
  match Key.find_opt g.index key with
  | None -> None
  | Some candidates ->
    List.find_map
      (fun (serial, pos) ->
        (match probes with Some p -> incr p | None -> ());
        if Witness.preserves_order pos events then Some serial else None)
      !candidates
