open Helpers
module Value = Lineup_value.Value
module History = Lineup_history.History
module Witness = Lineup_history.Witness
module Observation = Lineup.Observation

let u = Value.Unit

(* The Counter1 violation of §2.2.1: two completed Incs followed by Get=1. *)
let counter1_history =
  history
    [
      call 0 0 "Inc" ();
      call 1 0 "Inc" ();
      ret 0 0 Value.unit;
      ret 1 0 Value.unit;
      call 0 1 "Get" ();
      ret 0 1 (Value.int 1);
    ]

(* Serial histories a correct counter can produce for that test. *)
let counter_specs =
  [
    serial [ 0, "Inc", u, Value.unit; 1, "Inc", u, Value.unit; 0, "Get", u, Value.int 2 ];
    serial [ 1, "Inc", u, Value.unit; 0, "Inc", u, Value.unit; 0, "Get", u, Value.int 2 ];
    serial [ 0, "Inc", u, Value.unit; 0, "Get", u, Value.int 1; 1, "Inc", u, Value.unit ];
  ]

(* An observation set holding [specs], as phase 1 records them. *)
let observe specs =
  let obs = Observation.create () in
  List.iter (fun s -> ignore (Observation.add obs s)) specs;
  obs

(* Definition 1 on a complete [h], Definition 2 on a stuck one. *)
let witnessed ~specs h = holds (observed (observe specs)) h

let suite =
  [
    test "counter1 history has no witness (paper §2.2.1)" (fun () ->
        Alcotest.(check bool) "not linearizable" false
          (witnessed ~specs:counter_specs counter1_history));
    test "fixing the return value gives a witness" (fun () ->
        let ok_history =
          history
            [
              call 0 0 "Inc" ();
              call 1 0 "Inc" ();
              ret 0 0 Value.unit;
              ret 1 0 Value.unit;
              call 0 1 "Get" ();
              ret 0 1 (Value.int 2);
            ]
        in
        Alcotest.(check bool) "linearizable" true
          (witnessed ~specs:counter_specs ok_history));
    test "real-time order is respected (condition 3)" (fun () ->
        (* Get completes strictly before the second Inc starts, so a witness
           placing Inc before Get is not acceptable. *)
        let h =
          history
            [
              call 0 0 "Inc" ();
              ret 0 0 Value.unit;
              call 0 1 "Get" ();
              ret 0 1 (Value.int 2);
              call 1 0 "Inc" ();
              ret 1 0 Value.unit;
            ]
        in
        Alcotest.(check bool) "no witness" false
          (witnessed ~specs:counter_specs h));
    test "overlap allows reordering" (fun () ->
        (* Get overlaps the second Inc: Get=2 is justified by ordering Inc
           before it. *)
        let h =
          history
            [
              call 0 0 "Inc" ();
              ret 0 0 Value.unit;
              call 0 1 "Get" ();
              call 1 0 "Inc" ();
              ret 1 0 Value.unit;
              ret 0 1 (Value.int 2);
            ]
        in
        Alcotest.(check bool) "witness" true
          (witnessed ~specs:counter_specs h));
    test "witness requires matching responses" (fun () ->
        let s = serial [ 0, "Get", u, Value.int 0 ] in
        let h_match = history [ call 0 0 "Get" (); ret 0 0 (Value.int 0) ] in
        let h_mismatch = history [ call 0 0 "Get" (); ret 0 0 (Value.int 1) ] in
        Alcotest.(check bool) "match" true (witnessed ~specs:[ s ] h_match);
        Alcotest.(check bool) "mismatch" false (witnessed ~specs:[ s ] h_mismatch));
    test "witness requires per-thread order" (fun () ->
        let s = serial [ 0, "A", u, Value.unit; 0, "B", u, Value.unit ] in
        let h =
          history
            [ call 0 0 "B" (); ret 0 0 Value.unit; call 0 1 "A" (); ret 0 1 Value.unit ]
        in
        Alcotest.(check bool) "wrong order" false (witnessed ~specs:[ s ] h));
    test "stuck witness: justified pending operation" (fun () ->
        (* H: Inc complete, Dec pending; spec says Dec after nothing blocks
           — witness (Dec)# with Inc... no: witness must contain Inc. *)
        let h = history ~stuck:true [ call 0 0 "Dec" () ] in
        let specs = [ serial ~stuck:(0, "Dec", u) [] ] in
        Alcotest.(check bool) "justified" true
          (witnessed ~specs h));
    test "stuck witness: unjustified pending operation" (fun () ->
        (* Set completed, Wait still pending: no stuck serial history has
           Wait blocked after Set. *)
        let h =
          history ~stuck:true
            [ call 0 0 "Wait" (); call 1 0 "Set" (); ret 1 0 Value.unit ]
        in
        let specs = [ serial ~stuck:(0, "Wait", u) [] ] in
        match Spec.first_unjustified (observed (observe specs)) h with
        | Some (op, Spec.Reject) -> Alcotest.(check int) "pending thread" 0 op.Lineup_history.Op.tid
        | Some _ | None -> Alcotest.fail "expected unjustified");
    test "stuck witness accepts matching completed prefix" (fun () ->
        let h =
          history ~stuck:true
            [ call 1 0 "Set" (); ret 1 0 Value.unit; call 0 0 "Wait" () ]
        in
        let specs = [ serial ~stuck:(0, "Wait", u) [ 1, "Set", u, Value.unit ] ] in
        Alcotest.(check bool) "justified" true
          (witnessed ~specs h));
    test "multiple pending ops each need justification" (fun () ->
        let h = history ~stuck:true [ call 0 0 "Wait" (); call 1 0 "Wait" () ] in
        let specs = [ serial ~stuck:(0, "Wait", u) [] ] in
        (* thread 1's H[e] has key (1, Wait), not in specs *)
        match Spec.first_unjustified (observed (observe specs)) h with
        | Some (op, Spec.Reject) -> Alcotest.(check int) "thread" 1 op.Lineup_history.Op.tid
        | Some _ | None -> Alcotest.fail "expected unjustified");
    test "the observation search returns the witness" (fun () ->
        let h =
          history
            [ call 0 0 "Inc" (); ret 0 0 Value.unit; call 1 0 "Inc" (); ret 1 0 Value.unit;
              call 0 1 "Get" (); ret 0 1 (Value.int 2) ]
        in
        match Observation.witness (observe counter_specs) h with
        | Some w -> Alcotest.(check int) "ops" 3 (List.length w.Lineup_history.Serial_history.entries)
        | None -> Alcotest.fail "expected a witness");
  ]

(* ------------------------------------------------------------------ *)
(* The prepared search against Definitions 1 and 2, checked directly    *)
(* ------------------------------------------------------------------ *)

module Serial_history = Lineup_history.Serial_history
module Event = Lineup_history.Event

(* A random case: per-thread operation names, a few response patterns over
   them, serial histories drawn from those patterns (some stuck), and one
   query history, complete or H[e]-shaped. Responses are copied from a
   pattern most of the time so that thread keys often match. *)
type case = {
  serials : Serial_history.t list;  (** in insertion order, duplicates included *)
  query : History.t;
}

let pp_case ppf c =
  Fmt.pf ppf "@[<v>serials:@,%a@,query:@,%a@]"
    (Fmt.list ~sep:Fmt.cut Serial_history.pp)
    c.serials History.pp c.query

(* Random merge of per-thread queues, keeping each queue's order. *)
let interleave rng queues =
  let queues = Array.of_list queues in
  let rec go acc =
    let live = List.filter (fun i -> queues.(i) <> []) (List.init (Array.length queues) Fun.id) in
    match live with
    | [] -> List.rev acc
    | _ ->
      let i = List.nth live (Random.State.int rng (List.length live)) in
      let x = List.hd queues.(i) in
      queues.(i) <- List.tl queues.(i);
      go (x :: acc)
  in
  go []

let gen_case rng =
  let threads = 1 + Random.State.int rng 3 in
  let names =
    List.init threads (fun _ ->
        List.init (Random.State.int rng 3) (fun _ -> if Random.State.bool rng then "A" else "B"))
  in
  let pattern () = List.map (List.map (fun n -> n, Random.State.int rng 2)) names in
  let patterns = Array.init (1 + Random.State.int rng 3) (fun _ -> pattern ()) in
  let pick () =
    if Random.State.int rng 5 = 0 then pattern ()
    else patterns.(Random.State.int rng (Array.length patterns))
  in
  (* the thread left pending, if any: one with at least one operation *)
  let pending ops =
    let candidates = List.filter (fun t -> List.nth ops t <> []) (List.init threads Fun.id) in
    if candidates = [] || Random.State.int rng 3 > 0 then None
    else Some (List.nth candidates (Random.State.int rng (List.length candidates)))
  in
  let split_last l = List.filteri (fun i _ -> i < List.length l - 1) l, List.nth l (List.length l - 1) in
  let serial () =
    let ops = pick () in
    let stuck = pending ops in
    let queues =
      List.mapi
        (fun t l ->
          let l = if stuck = Some t then fst (split_last l) else l in
          List.map (fun (n, r) -> { Serial_history.tid = t; inv = inv n; resp = Value.int r }) l)
        ops
    in
    Serial_history.make
      ~stuck:(Option.map (fun t -> t, inv (fst (snd (split_last (List.nth ops t))))) stuck)
      (interleave rng queues)
  in
  let query =
    let ops = pick () in
    let stuck = pending ops in
    let queues =
      List.mapi
        (fun t l ->
          let last = List.length l - 1 in
          List.concat
            (List.mapi
               (fun i (n, r) ->
                 if stuck = Some t && i = last then [ call t i n () ]
                 else [ call t i n (); ret t i (Value.int r) ])
               l))
        ops
    in
    history ~stuck:(stuck <> None) (interleave rng queues)
  in
  { serials = List.init (1 + Random.State.int rng 10) (fun _ -> serial ()); query }

(* Operations of a history straight from its events: (tid, per-thread
   index) -> invocation, response, call position, return position. *)
let naive_ops h =
  let evs = List.mapi (fun pos e -> pos, e) (History.events h) in
  List.filter_map
    (fun (pos, (e : Event.t)) ->
      match e.dir with
      | Event.Return _ -> None
      | Event.Call i ->
        let ret =
          List.find_map
            (fun (rp, (r : Event.t)) ->
              match r.dir with
              | Event.Return v when r.tid = e.tid && r.op_index = e.op_index -> Some (v, rp)
              | _ -> None)
            evs
        in
        Some ((e.tid, e.op_index), (i, Option.map fst ret, pos, Option.map snd ret)))
    evs

(* Serial operations in linear order, keyed like [naive_ops]. *)
let naive_serial_ops (s : Serial_history.t) =
  let counts = Hashtbl.create 7 in
  let key t =
    let i = Option.value ~default:0 (Hashtbl.find_opt counts t) in
    Hashtbl.replace counts t (i + 1);
    t, i
  in
  let entries =
    List.map (fun (e : Serial_history.entry) -> key e.tid, (e.inv, Some e.resp)) s.entries
  in
  entries @ match s.stuck with Some (t, i) -> [ key t, (i, None) ] | None -> []

(* Condition 2: H|t = S|t for every thread t. *)
let same_threads s h =
  let of_h = List.map (fun (k, (i, r, _, _)) -> k, (i, r)) (naive_ops h) in
  let of_s = naive_serial_ops s in
  let sorted l = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) l in
  List.equal
    (fun (k1, (i1, r1)) (k2, (i2, r2)) ->
      k1 = k2 && Invocation.equal i1 i2 && Option.equal Value.equal r1 r2)
    (sorted of_h) (sorted of_s)

(* Condition 3: an operation returning before another is called precedes it
   in S. *)
let respects_order s h =
  let pos = List.mapi (fun i (k, _) -> k, i) (naive_serial_ops s) in
  let ops = naive_ops h in
  List.for_all
    (fun (k1, (_, _, _, ret1)) ->
      List.for_all
        (fun (k2, (_, _, call2, _)) ->
          match ret1 with
          | Some r when r < call2 -> List.assoc k1 pos < List.assoc k2 pos
          | _ -> true)
        ops)
    ops

let case_arb = QCheck.make ~print:(Fmt.str "%a" pp_case) (fun st -> gen_case st)

let search_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"prepared search agrees with Definitions 1 and 2, probe for probe"
         ~count:1000 case_arb (fun c ->
           let obs = Observation.create () in
           List.iter (fun s -> ignore (Observation.add obs s)) c.serials;
           let h = c.query in
           let stuck = History.is_stuck h in
           (* the index's candidates: distinct serials of the query's kind
              with equal thread subhistories, most recently added first *)
           let distinct =
             List.fold_left
               (fun acc s -> if List.exists (Serial_history.equal s) acc then acc else s :: acc)
               [] c.serials
           in
           let candidates =
             List.filter (fun s -> Serial_history.is_stuck s = stuck && same_threads s h) distinct
           in
           let rec first i = function
             | [] -> None, List.length candidates
             | s :: rest -> if respects_order s h then Some s, i else first (i + 1) rest
           in
           let want, want_probes = first 1 candidates in
           let probes = ref 0 in
           let got = Observation.witness ~probes obs h in
           let same = Option.equal Serial_history.equal want got in
           (* condition 3 on every serial history with the query's thread
              subhistories, stuck or full *)
           let order_agrees =
             let _, events = Witness.prepare h in
             List.for_all
               (fun s ->
                 (not (same_threads s h))
                 || Witness.preserves_order (snd (Witness.index s)) events = respects_order s h)
               distinct
           in
           if not (same && !probes = want_probes && order_agrees) then
             QCheck.Test.fail_reportf "witness %s, probes %d (want %d), preserves_order agrees: %b"
               (if same then "agrees" else "differs") !probes want_probes order_agrees
           else true));
  ]

(* ------------------------------------------------------------------ *)
(* The flat key against the nested thread key                          *)
(* ------------------------------------------------------------------ *)

(* Per-thread operations over up to 4 threads, a name and a response each,
   and whether the thread's last one is left pending; from a small alphabet,
   so that two draws often share thread keys. *)
let gen_threads rng =
  List.init
    (1 + Random.State.int rng 4)
    (fun _ ->
      let ops =
        List.init (Random.State.int rng 3) (fun _ ->
            (if Random.State.bool rng then "A" else "B"), Random.State.int rng 2)
      in
      ops, ops <> [] && Random.State.int rng 4 = 0)

(* The same threads; or some responses changed; or the pending calls'
   names swapped, which keeps every complete operation; or a fresh draw. *)
let vary rng threads =
  let swap n = if n = "A" then "B" else "A" in
  match Random.State.int rng 4 with
  | 0 -> threads
  | 1 ->
    List.map
      (fun (ops, pending) ->
        List.map (fun (n, r) -> n, if Random.State.int rng 4 = 0 then 1 - r else r) ops, pending)
      threads
  | 2 ->
    List.map
      (fun (ops, pending) ->
        let last = List.length ops - 1 in
        List.mapi (fun i (n, r) -> (if pending && i = last then swap n else n), r) ops, pending)
      threads
  | _ -> gen_threads rng

let history_of rng threads =
  interleave rng
    (List.mapi
       (fun t (ops, pending) ->
         let last = List.length ops - 1 in
         List.concat
           (List.mapi
              (fun i (n, r) ->
                if pending && i = last then [ call t i n () ]
                else [ call t i n (); ret t i (Value.int r) ])
              ops))
       threads)
  |> history

(* A serial history with the same threads, when at most one is pending. *)
let serial_of rng threads =
  let pending = List.filter (fun (_, (_, p)) -> p) (List.mapi (fun t x -> t, x) threads) in
  match pending with
  | _ :: _ :: _ -> None
  | _ ->
    let entries =
      List.mapi
        (fun t (ops, p) ->
          List.filteri (fun i _ -> not (p && i = List.length ops - 1)) ops
          |> List.map (fun (n, r) -> { Serial_history.tid = t; inv = inv n; resp = Value.int r }))
        threads
    in
    let stuck =
      List.map (fun (t, (ops, _)) -> t, inv (fst (List.nth ops (List.length ops - 1)))) pending
    in
    Some (Serial_history.make ~stuck:(List.nth_opt stuck 0) (interleave rng entries))

(* Each draw as a history and, when it can be one, as a serial history:
   (name, flat key, nested key). *)
let keyed rng threads =
  let h = history_of rng threads in
  ("history", fst (Witness.prepare h), History.thread_key h)
  :: Option.fold ~none:[]
       ~some:(fun s -> [ "serial", fst (Witness.index s), Serial_history.thread_key s ])
       (serial_of rng threads)

let key_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"flat keys are equal exactly when thread keys are, and hash alike"
         ~count:2000
         (QCheck.make (fun rng ->
              let a = gen_threads rng in
              let b = vary rng a in
              keyed rng a, keyed rng b))
         (fun (xs, ys) ->
           List.for_all
             (fun (nx, kx, tx) ->
               List.for_all
                 (fun (ny, ky, ty) ->
                   let flat = Witness.key_equal kx ky and nested = tx = ty in
                   if flat <> nested then
                     QCheck.Test.fail_reportf "%s vs %s: flat %b, nested %b" nx ny flat nested
                   else if flat && Witness.key_hash kx <> Witness.key_hash ky then
                     QCheck.Test.fail_reportf "%s vs %s: equal keys hash apart" nx ny
                   else true)
                 ys)
             xs));
  ]

let tests = suite @ search_props @ key_props
