type 'a t = {
  id : int;
  name : string;
  volatile : bool;
  mutable v : 'a;
  (* Pending buffered stores, for read forwarding under TSO/PSO:
     [tid -> (youngest buffered value by tid, number of pending stores by
     tid)]. Empty whenever the memory model is SC, so the SC read path is a
     single [[]] match away from the historical behaviour. *)
  mutable fwd : (int * ('a * int)) list;
}

let make ?(volatile = false) ?name init =
  let id = Exec_ctx.fresh_loc () in
  let name = match name with Some n -> n | None -> Loc_name.indexed "loc" id in
  { id; name; volatile; v = init; fwd = [] }

let name x = x.name
let id x = x.id

let access x kind = Rt.access ~loc:x.id ~loc_name:x.name ~kind ~volatile:x.volatile

(* The youngest value visible to the calling thread: its own buffered store
   if one is pending, the shared cell otherwise. *)
let visible x =
  match x.fwd with
  | [] -> x.v
  | fwd -> (
    match List.assoc_opt (Exec_ctx.current_tid ()) fwd with
    | Some (v, _) -> v
    | None -> x.v)

let read x =
  access x Exec_ctx.Read;
  visible x

let write x value =
  access x Exec_ctx.Write;
  match Exec_ctx.memory () with
  | Memory_model.Sc -> x.v <- value
  | Memory_model.Tso | Memory_model.Pso ->
    let tid = Exec_ctx.current_tid () in
    let pending =
      match List.assoc_opt tid x.fwd with Some (_, n) -> n | None -> 0
    in
    x.fwd <- (tid, (value, pending + 1)) :: List.remove_assoc tid x.fwd;
    Exec_ctx.buffer_push ~loc:x.id ~loc_name:x.name ~commit:(fun () ->
        x.v <- value;
        match List.assoc_opt tid x.fwd with
        | Some (_, 1) | None -> x.fwd <- List.remove_assoc tid x.fwd
        | Some (latest, n) ->
          x.fwd <- (tid, (latest, n - 1)) :: List.remove_assoc tid x.fwd)

(* Read-modify-writes act on the shared cell directly: the scheduler drains
   the calling thread's store buffers before letting an RMW scheduling point
   proceed under TSO/PSO, so at this point the thread has no pending store
   to forward from and the operation is globally atomic. *)

let cas x expected desired =
  access x Exec_ctx.Rmw;
  if x.v == expected then begin
    x.v <- desired;
    true
  end
  else false

let fetch_and_add x n =
  access x Exec_ctx.Rmw;
  let old = x.v in
  x.v <- old + n;
  old

let exchange x value =
  access x Exec_ctx.Rmw;
  let old = x.v in
  x.v <- value;
  old

let peek x = visible x
let poke x value = x.v <- value

let update x f =
  access x Exec_ctx.Rmw;
  let v = f x.v in
  x.v <- v;
  v
