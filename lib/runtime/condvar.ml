type t = {
  id : int;
  name : string;
  mutable generation : int;  (* bumped by pulse_all *)
  mutable tickets : int;  (* total single wake-ups issued *)
  mutable next_ticket : int;  (* next single wake-up ticket to hand out *)
}

let create ?name () =
  let id = Exec_ctx.fresh_loc () in
  let name = match name with Some n -> n | None -> Loc_name.indexed "cond" id in
  { id; name; generation = 0; tickets = 0; next_ticket = 0 }

let sched cv = Rt.access ~loc:cv.id ~loc_name:cv.name ~kind:Exec_ctx.Rmw ~volatile:true

let assert_held m =
  match m with
  | None -> ()
  | Some m ->
    (match Mutex_.holder m with
     | Some t when t = Rt.self () -> ()
     | Some _ | None ->
       invalid_arg (Fmt.str "Condvar: pulse on %s without holding the monitor" (Mutex_.name m)))

let wait cv m =
  sched cv;
  let my_generation = cv.generation in
  let my_ticket = cv.next_ticket in
  cv.next_ticket <- cv.next_ticket + 1;
  Mutex_.release m;
  (* The woken step only re-reads the wake bookkeeping before heading into
     [Mutex_.acquire], which declares its own scheduling point. *)
  Rt.block
    ~footprint:(Footprint.access ~loc:cv.id ~kind:Exec_ctx.Read)
    ~wake:(fun () -> cv.generation > my_generation || cv.tickets > my_ticket)
    ("condvar " ^ cv.name);
  Mutex_.acquire m

let pulse_all ?m cv =
  assert_held m;
  sched cv;
  cv.generation <- cv.generation + 1;
  (* a broadcast also voids outstanding single-wake bookkeeping *)
  cv.tickets <- cv.next_ticket

let pulse ?m cv =
  assert_held m;
  sched cv;
  if cv.tickets < cv.next_ticket then cv.tickets <- cv.tickets + 1
