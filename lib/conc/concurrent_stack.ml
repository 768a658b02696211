module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Rt = Lineup_runtime.Rt
open Util

let universe =
  [
    inv_int "Push" 1;
    inv_int "Push" 2;
    inv "TryPop";
    inv "TryPeek";
    inv "Count";
    inv ~arg:(Value.list [ Value.int 8; Value.int 9 ]) "PushRange";
    inv_int "TryPopRange" 2;
    inv "ToArray";
  ]

let rec take n l =
  if n = 0 then [], l
  else
    match l with
    | [] -> [], []
    | x :: rest ->
      let popped, rest' = take (n - 1) rest in
      x :: popped, rest'

let make_adapter ~buggy_range name =
  let create () =
    let top = Var.make ~volatile:true ~name:"stack.top" [] in
    let rec cas_update f =
      let l = Var.read top in
      let l', result = f l in
      if Var.cas top l l' then result
      else begin
        Rt.yield ();
        cas_update f
      end
    in
    let try_pop () =
      cas_update (function [] -> [], Value.Fail | x :: rest -> rest, Value.int x)
    in
    let try_pop_range n =
      if buggy_range then begin
        (* BUG (root cause E): the range is assembled from n independent
           pops, so it is not an atomic stack segment *)
        let rec go n acc =
          if n = 0 then List.rev acc
          else
            match try_pop () with
            | Value.Fail -> List.rev acc
            | v -> go (n - 1) (v :: acc)
        in
        Value.list (go n [])
      end
      else
        cas_update (fun l ->
            let popped, rest = take n l in
            rest, Value.list (List.map Value.int popped))
    in
    let invoke (i : Invocation.t) =
      match i.name, i.arg with
      | "Push", Value.Int x -> cas_update (fun l -> x :: l, Value.unit)
      | "PushRange", Value.List xs ->
        let xs = List.map Value.get_int xs in
        cas_update (fun l -> xs @ l, Value.unit)
      | "TryPop", Value.Unit -> try_pop ()
      | "TryPopRange", Value.Int n -> try_pop_range n
      | "TryPeek", Value.Unit -> (
        match Var.read top with [] -> Value.Fail | x :: _ -> Value.int x)
      | "Count", Value.Unit -> Value.int (List.length (Var.read top))
      | "ToArray", Value.Unit -> Value.list (List.map Value.int (Var.read top))
      | _ -> unexpected "ConcurrentStack" i
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name ~universe create

let correct = make_adapter ~buggy_range:false "ConcurrentStack"
let pre = make_adapter ~buggy_range:true "ConcurrentStack (Pre: non-atomic TryPopRange)"
