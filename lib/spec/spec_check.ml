module History = Lineup_history.History

type meth =
  | Monitor_check
  | Pcomp_check
  | Direct_check

(* The dispatch ladder. The test's [init] sequence runs unrecorded before
   the threads (see [Lineup.Harness]), so the specification must first be
   advanced over it; the class monitors assume an empty initial state and
   are only consulted when there is no init sequence, while the splitter
   and the direct check work from the advanced state. *)
let decide ?(force_spec = false) (Spec.Packed spec) ~init h =
  match Spec.advance spec init with
  | None -> Spec.Unsupported "init sequence blocks", None
  | Some st0 ->
    let spec = { spec with Spec.initial = st0 } in
    let direct () =
      if not force_spec then Spec.Unsupported "no specialized check", None
      else
        match Lin_check.decide spec h with
        | (Spec.Accept | Spec.Reject) as v -> v, Some Direct_check
        | Spec.Unsupported _ as v -> v, None
    in
    if History.is_stuck h || not (History.is_complete h) then direct ()
    else begin
      let specialized =
        match spec.Spec.cls with
        | (Spec.Queue | Spec.Stack) when init = [] ->
          Some (Monitor.check ~cls:spec.Spec.cls h, Monitor_check)
        | Spec.Set | Spec.Dictionary -> Some (Pcomp.check spec h, Pcomp_check)
        | Spec.Queue | Spec.Stack | Spec.Counter | Spec.Other -> None
      in
      match specialized with
      | Some (((Spec.Accept | Spec.Reject) as v), m) -> v, Some m
      | Some (Spec.Unsupported _, _) | None -> direct ()
    end
