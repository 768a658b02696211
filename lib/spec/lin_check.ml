module Value = Lineup_value.Value
module History = Lineup_history.History
module Op = Lineup_history.Op

(* Wing & Gong-style search for a serial witness, memoized on the pair
   (set of linearized operations, specification state) as in Lowe's
   "Testing for linearizability". Operations are indexed in an array; sets
   are bitmasks, so histories are limited to 62 operations — far beyond the
   3x3 tests of the paper, but reachable via the auto generators. [decide]
   answers an oversized history [Unsupported]; only [linearization]
   raises. *)

let max_ops = 62
let too_many n = Fmt.str "Lin_check: %d operations exceed the %d-op bitmask" n max_ops

let prepare h =
  let ops = Array.of_list (History.ops h) in
  let n = Array.length ops in
  if n > max_ops then Error (too_many n)
  else begin
    let preds =
      Array.init n (fun i ->
          List.filter
            (fun j -> Op.precedes ops.(j) ops.(i))
            (List.init n (fun j -> j)))
    in
    Ok (ops, n, preds)
  end

let prepare_exn h =
  match prepare h with
  | Ok p -> p
  | Error _ -> invalid_arg "Lin_check: more than 62 operations"

let bit i = 1 lsl i

(* Search for an order linearizing at least all complete operations (pending
   ones may be linearized when the specification returns for them, or
   dropped). [final_check] inspects the specification state reached once all
   complete operations are linearized. Returns the order (indices reversed)
   on success. *)
let search (spec : 'st Spec.t) ops n preds ~allow_pending ~final_check =
  let complete_mask =
    let m = ref 0 in
    Array.iteri (fun i op -> if Op.is_complete op then m := !m lor bit i) ops;
    !m
  in
  let memo : (int * string, unit) Hashtbl.t = Hashtbl.create 256 in
  let rec go mask st acc =
    if mask land complete_mask = complete_mask && final_check st then Some acc
    else begin
      let key = mask, spec.Spec.state_key st in
      if Hashtbl.mem memo key then None
      else begin
        Hashtbl.add memo key ();
        let rec try_ops i =
          if i >= n then None
          else if mask land bit i <> 0 then try_ops (i + 1)
          else if List.exists (fun j -> mask land bit j = 0) preds.(i) then try_ops (i + 1)
          else begin
            let op : Op.t = ops.(i) in
            let attempt =
              match spec.Spec.step st op.inv, op.resp with
              | Spec.Return (v, st'), Some resp when Value.equal v resp ->
                go (mask lor bit i) st' (i :: acc)
              | Spec.Return (v, st'), None when allow_pending ->
                ignore v;
                go (mask lor bit i) st' (i :: acc)
              | (Spec.Return _ | Spec.Blocked), _ -> None
            in
            match attempt with Some _ as r -> r | None -> try_ops (i + 1)
          end
        in
        try_ops 0
      end
    end
  in
  go 0 spec.Spec.initial []

let decide spec h =
  match prepare h with
  | Error reason -> Spec.Unsupported reason
  | Ok (ops, n, preds) ->
    let found =
      if not (History.is_stuck h) then
        search spec ops n preds ~allow_pending:true ~final_check:(fun _ -> true)
      else
        match History.pending_ops h with
        | [ (e : Op.t) ] ->
          (* H[e]: all complete operations linearized in some <H-consistent
             order, after which the specification blocks on [e]'s
             invocation; [e] itself is not linearized (it is the witness's
             final pending call). *)
          let blocks st =
            match spec.Spec.step st e.inv with Spec.Blocked -> true | Spec.Return _ -> false
          in
          search spec ops n preds ~allow_pending:false ~final_check:blocks
        | _ -> invalid_arg "Lin_check.decide: a stuck history must have one pending operation"
    in
    if Option.is_some found then Spec.Accept else Spec.Reject

(* All specification states reachable by linearizing the complete history
   [h] in full, one representative per distinct [state_key], in sorted key
   order. This is the feasible-state set the chunked streaming monitor
   ({!Kmon}) propagates between quiescent chunks: the next chunk is
   linearizable after this one iff it is linearizable from one of these
   states. Unlike [search], the exploration does not stop at the first
   witness — it must enumerate every final state — but the same
   (mask, state_key) memoization bounds it. *)
let final_states (spec : 'st Spec.t) h =
  if not (History.is_complete h) then
    invalid_arg "Lin_check.final_states: history has pending operations";
  match prepare h with
  | Error reason -> `Unsupported reason
  | Ok (ops, n, preds) ->
    let full = (1 lsl n) - 1 in
    let out : (string, 'st) Hashtbl.t = Hashtbl.create 16 in
    let visited : (int * string, unit) Hashtbl.t = Hashtbl.create 256 in
    let rec go mask st =
      let key = spec.Spec.state_key st in
      if not (Hashtbl.mem visited (mask, key)) then begin
        Hashtbl.add visited (mask, key) ();
        if mask = full then begin
          if not (Hashtbl.mem out key) then Hashtbl.add out key st
        end
        else
          for i = 0 to n - 1 do
            if
              mask land bit i = 0
              && not (List.exists (fun j -> mask land bit j = 0) preds.(i))
            then begin
              let op : Op.t = ops.(i) in
              match spec.Spec.step st op.inv, op.resp with
              | Spec.Return (v, st'), Some resp when Value.equal v resp ->
                go (mask lor bit i) st'
              | (Spec.Return _ | Spec.Blocked), _ -> ()
            end
          done
      end
    in
    go 0 spec.Spec.initial;
    let states =
      Hashtbl.fold (fun k st acc -> (k, st) :: acc) out []
      |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
      |> List.map snd
    in
    `States states

let linearization spec h =
  let ops, n, preds = prepare_exn h in
  search spec ops n preds ~allow_pending:true ~final_check:(fun _ -> true)
  |> Option.map (List.rev_map (fun i -> ops.(i)))
