type t = {
  id : int;
  name : string;
  mutable holder : int option;
}

let create ?name () =
  let id = Exec_ctx.fresh_loc () in
  let name = match name with Some n -> n | None -> Loc_name.indexed "lock" id in
  { id; name; holder = None }

let name m = m.name

let sched m = Rt.access ~loc:m.id ~loc_name:m.name ~kind:Exec_ctx.Rmw ~volatile:true

let log_acquire m =
  Exec_ctx.log (Exec_ctx.Lock_acquire { tid = Exec_ctx.current_tid (); lock = m.id; name = m.name })

let log_release m =
  Exec_ctx.log (Exec_ctx.Lock_release { tid = Exec_ctx.current_tid (); lock = m.id; name = m.name })

let take m =
  m.holder <- Some (Rt.self ());
  log_acquire m

(* The step a woken waiter executes re-checks the holder and takes the
   lock: an Rmw of the lock's location, declared so the partial-order
   reduction need not treat lock hand-offs as opaque. *)
let block_footprint m = Footprint.access ~loc:m.id ~kind:Exec_ctx.Rmw

let acquire m =
  sched m;
  (* After [block] returns the predicate holds and nothing has run since, so
     taking the lock here is atomic. The loop guards the first iteration. *)
  while Option.is_some m.holder do
    Rt.block ~footprint:(block_footprint m)
      ~wake:(fun () -> Option.is_none m.holder)
      ("lock " ^ m.name)
  done;
  take m

let try_acquire m =
  sched m;
  if Option.is_none m.holder then begin
    take m;
    true
  end
  else false

let try_acquire_timed m =
  sched m;
  if Option.is_none m.holder then begin
    take m;
    true
  end
  else if Rt.choose ~what:("timeout on " ^ m.name) 2 = 0 then false (* timed out *)
  else begin
    while Option.is_some m.holder do
      Rt.block ~footprint:(block_footprint m)
        ~wake:(fun () -> Option.is_none m.holder)
        ("lock " ^ m.name)
    done;
    take m;
    true
  end

let release m =
  sched m;
  (match m.holder with
   | Some t when t = Rt.self () -> ()
   | Some t ->
     invalid_arg
       (Fmt.str "Mutex_.release: %s held by thread %d, released by %d" m.name t (Rt.self ()))
   | None -> invalid_arg (Fmt.str "Mutex_.release: %s is not held" m.name));
  m.holder <- None;
  log_release m

let holder m = m.holder

let with_lock m f =
  acquire m;
  match f () with
  | x ->
    release m;
    x
  | exception e ->
    release m;
    raise e
