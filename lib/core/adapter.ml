module Invocation = Lineup_history.Invocation
module Value = Lineup_value.Value

type instance = {
  invoke : Invocation.t -> Value.t;
}

type t = {
  name : string;
  universe : Invocation.t list;
  create : unit -> instance;
}

let make ~name ~universe create = { name; universe; create }

let invocation adapter name =
  match List.find_opt (fun (i : Invocation.t) -> String.equal i.name name) adapter.universe with
  | Some i -> i
  | None -> raise Not_found
