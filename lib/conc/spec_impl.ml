module Spec = Lineup_spec.Spec
module Var = Lineup_runtime.Shared_var
module Mutex_ = Lineup_runtime.Mutex_
module Rt = Lineup_runtime.Rt

let adapter ?name ?(universe = []) (spec : 'st Spec.t) =
  let name = Option.value name ~default:(spec.Spec.name ^ "-locked") in
  let create () =
    let lock = Mutex_.create ~name:(name ^ ".lock") () in
    let state = Var.make ~name:(name ^ ".state") spec.Spec.initial in
    let rec invoke inv =
      Mutex_.acquire lock;
      let st = Var.read state in
      match spec.Spec.step st inv with
      | Spec.Return (v, st') ->
        Var.write state st';
        Mutex_.release lock;
        v
      | Spec.Blocked ->
        (* Wait (outside the lock) until the operation can proceed, then
           retry; the re-acquisition re-reads the state. *)
        Mutex_.release lock;
        Rt.block
          ~wake:(fun () ->
            match spec.Spec.step (Var.peek state) inv with
            | Spec.Return _ -> true
            | Spec.Blocked -> false)
          (spec.Spec.name ^ " can proceed");
        invoke inv
    in
    { Lineup.Adapter.invoke }
  in
  Lineup.Adapter.make ~name ~universe create
