module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Rt = Lineup_runtime.Rt
open Util

type node = {
  value : int;  (* unused in the dummy node *)
  next : node option Var.t;
}

let universe =
  [ inv_int "Enqueue" 200; inv_int "Enqueue" 400; inv "TryDequeue"; inv "TryPeek"; inv "IsEmpty" ]

let adapter =
  let create () =
    let dummy = { value = 0; next = Var.make ~volatile:true ~name:"msq.dummy.next" None } in
    let head = Var.make ~volatile:true ~name:"msq.head" dummy in
    let tail = Var.make ~volatile:true ~name:"msq.tail" dummy in
    let rec enqueue node =
      let last = Var.read tail in
      let next = Var.read last.next in
      if Var.peek tail == last then begin
        match next with
        | None ->
          if Var.cas last.next None (Some node) then
            (* linearized; help swing the tail (failure is benign) *)
            ignore (Var.cas tail last node)
          else begin
            Rt.yield ();
            enqueue node
          end
        | Some n ->
          (* tail lagging: help, then retry *)
          ignore (Var.cas tail last n);
          Rt.yield ();
          enqueue node
      end
      else begin
        Rt.yield ();
        enqueue node
      end
    in
    let rec try_dequeue () =
      let first = Var.read head in
      let last = Var.read tail in
      let next = Var.read first.next in
      if Var.peek head == first then begin
        if first == last then begin
          match next with
          | None -> Value.Fail
          | Some n ->
            ignore (Var.cas tail last n);
            Rt.yield ();
            try_dequeue ()
        end
        else begin
          match next with
          | None -> Value.Fail (* transient; treat as empty *)
          | Some n ->
            if Var.cas head first n then Value.int n.value
            else begin
              Rt.yield ();
              try_dequeue ()
            end
        end
      end
      else begin
        Rt.yield ();
        try_dequeue ()
      end
    in
    let try_peek () =
      let first = Var.read head in
      match Var.read first.next with
      | None -> Value.Fail
      | Some n -> Value.int n.value
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Enqueue", Value.Int x ->
        let node = { value = x; next = Var.make ~volatile:true ~name:"msq.node.next" None } in
        enqueue node;
        Value.unit
      | "TryDequeue", Value.Unit -> try_dequeue ()
      | "TryPeek", Value.Unit -> try_peek ()
      | "IsEmpty", Value.Unit ->
        let first = Var.read head in
        Value.bool (Option.is_none (Var.read first.next))
      | _ -> unexpected "MichaelScottQueue" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name:"MichaelScottQueue" ~universe create
