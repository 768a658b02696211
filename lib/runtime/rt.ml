type sched_reason = Boundary | Return_boundary | Fence

type _ Effect.t +=
  | Sched : sched_reason -> unit Effect.t
  | Access : unit Effect.t
  | Block : (unit -> bool) * string * Footprint.t -> unit Effect.t
  | Choose : int * string -> int Effect.t
  | Yield : unit Effect.t

(* The scheduling points carry no per-call data, so each is built once. *)
let boundary = Sched Boundary
let return_boundary = Sched Return_boundary
let fence_point = Sched Fence

let sched = function
  | Boundary -> Effect.perform boundary
  | Return_boundary -> Effect.perform return_boundary
  | Fence ->
    Effect.perform fence_point;
    if Exec_ctx.logging_enabled () then
      Exec_ctx.log (Exec_ctx.Fence { tid = Exec_ctx.current_tid () })

(* The footprint of the access being performed, written just before
   [Access] is performed and read by its handler. Domain-local, like every
   per-execution slot. *)
type slot = { mutable fp : Footprint.t }

let slot = Domain.DLS.new_key (fun () -> { fp = Footprint.pure })
let accessed () = (Domain.DLS.get slot).fp

let access ~loc ~loc_name ~kind ~volatile =
  (Domain.DLS.get slot).fp <- Footprint.access ~loc ~kind;
  Effect.perform Access;
  if Exec_ctx.logging_enabled () then
    Exec_ctx.log (Exec_ctx.Access { tid = Exec_ctx.current_tid (); loc; loc_name; kind; volatile })

let op_boundary () = Effect.perform boundary
let fence () = sched Fence
let block ?(footprint = Footprint.unknown) ~wake what =
  if not (wake ()) then Effect.perform (Block (wake, what, footprint))
let choose ?(what = "choice") n = Effect.perform (Choose (n, what))
let yield () = Effect.perform Yield
let self () = Exec_ctx.current_tid ()

let run_inline (type a) (f : unit -> a) : a =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun x -> x);
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Sched _ -> Some (fun (k : (b, a) continuation) -> continue k ())
          | Access -> Some (fun (k : (b, a) continuation) -> continue k ())
          | Yield -> Some (fun (k : (b, a) continuation) -> continue k ())
          | Block (wake, what, _) ->
            Some
              (fun (k : (b, a) continuation) ->
                if wake () then continue k ()
                else failwith ("Rt.run_inline: blocked on " ^ what))
          | Choose (_, _) -> Some (fun (k : (b, a) continuation) -> continue k 0)
          | _ -> None);
    }
