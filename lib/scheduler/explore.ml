module Rt = Lineup_runtime.Rt
module Exec_ctx = Lineup_runtime.Exec_ctx
module Footprint = Lineup_runtime.Footprint
module Memory_model = Lineup_runtime.Memory_model

type mode = Concurrent | Serial

type config = {
  mode : mode;
  preemption_bound : int option;
  max_steps : int;
  max_executions : int option;
  por : bool;
  memory : Memory_model.t;
}

let default_config =
  {
    mode = Concurrent;
    preemption_bound = Some 2;
    max_steps = 50_000;
    max_executions = None;
    por = false;
    memory = Memory_model.Sc;
  }

let serial_config =
  {
    mode = Serial;
    preemption_bound = None;
    max_steps = 50_000;
    max_executions = None;
    por = false;
    memory = Memory_model.Sc;
  }

type exec_end =
  | All_finished
  | Deadlock of int list
  | Serial_stuck of int
  | Diverged

type exec_outcome = {
  exec_end : exec_end;
  steps : int;
  preemptions : int;
  yields : int;
  flushes : int;
  choice_points : int;
  errors : (int * exn) list;
  por_pruned : bool;
}

type stats = {
  executions : int;
  total_steps : int;
  deadlocks : int;
  divergences : int;
  serial_stucks : int;
  max_depth : int;
  pruned_choices : int;
  preemptions_spent : int;
  yields : int;
  choice_points : int;
  exact_bound_skips : int;
  sleep_set_skips : int;
  backtrack_points : int;
  flushes : int;
  complete : bool;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "executions=%d steps=%d deadlocks=%d divergences=%d serial-stuck=%d max-depth=%d pruned=%d %s"
    s.executions s.total_steps s.deadlocks s.divergences s.serial_stucks s.max_depth
    s.pruned_choices
    (if s.complete then "(exhaustive)" else "(budget-cut)")

let empty_stats =
  {
    executions = 0;
    total_steps = 0;
    deadlocks = 0;
    divergences = 0;
    serial_stucks = 0;
    max_depth = 0;
    pruned_choices = 0;
    preemptions_spent = 0;
    yields = 0;
    choice_points = 0;
    exact_bound_skips = 0;
    sleep_set_skips = 0;
    backtrack_points = 0;
    flushes = 0;
    complete = true;
  }

let merge_stats a b =
  {
    executions = a.executions + b.executions;
    total_steps = a.total_steps + b.total_steps;
    deadlocks = a.deadlocks + b.deadlocks;
    divergences = a.divergences + b.divergences;
    serial_stucks = a.serial_stucks + b.serial_stucks;
    max_depth = max a.max_depth b.max_depth;
    pruned_choices = a.pruned_choices + b.pruned_choices;
    preemptions_spent = a.preemptions_spent + b.preemptions_spent;
    yields = a.yields + b.yields;
    choice_points = a.choice_points + b.choice_points;
    exact_bound_skips = a.exact_bound_skips + b.exact_bound_skips;
    sleep_set_skips = a.sleep_set_skips + b.sleep_set_skips;
    backtrack_points = a.backtrack_points + b.backtrack_points;
    flushes = a.flushes + b.flushes;
    complete = a.complete && b.complete;
  }

(* ------------------------------------------------------------------ *)
(* Decision traces                                                     *)
(* ------------------------------------------------------------------ *)

(* How far an explored sibling's coverage reaches once it sleeps (see the
   soundness note at {!por}): [Always] until a conflicting step runs;
   [Across_flushes] only over consecutive non-conflicting flush steps — it
   wakes at the first thread step. *)
type scope = Always | Across_flushes

(* Decision records are shared between the replay prefix and the trace being
   built, so mutating them during backtracking persists into the next
   execution. A [Thread] decision is a full choice point: besides the chosen
   thread and its pending alternatives it carries the schedulable candidate
   set, the footprint of the executed step and the sleep-set bookkeeping the
   partial-order reduction maintains across siblings ([explored], [sleep]).
   Outside POR mode the extra fields are dead weight kept empty. *)
type decision =
  | Thread of {
      mutable chosen : int;
      mutable untried : int list;
      mutable explored : (int * scope) list;
          (** siblings already fully explored, with the scope each sleeps with *)
      mutable sleep : (int * scope) list;  (** sleep set on entry, refreshed on replay *)
      mutable candidates : int list;  (** all schedulable choices here *)
      mutable free : int list;  (** the non-preempting subset *)
      mutable fp : Footprint.t;  (** footprint of the executed step *)
      mutable scope : scope option;
          (** the scope with which [chosen] enters sibling sleep sets once
              flipped past, if any. [Always] under no bound; under a finite
              preemption bound [Always] only when [chosen] was a free choice
              whose step ended at a voluntary suspension, else
              [Across_flushes] unless its step left it yielded (see the
              soundness note at {!por}). *)
      frozen : bool;  (** thawed frontier prefix: never backtracked *)
    }
  | Value of { mutable chosen : int; mutable untried : int list; arity : int }

let thread_decision chosen ~untried ~sleep ~candidates ~free =
  Thread
    {
      chosen;
      untried;
      explored = [];
      sleep;
      candidates;
      free;
      fp = Footprint.pure;
      scope = None;
      frozen = false;
    }

exception Killed

(* Raised by a POR decider when every schedulable choice is in the sleep
   set: the execution's continuation only re-interleaves independent steps
   already covered by an explored sibling subtree. The engine kills the
   execution and the driver does not report it. *)
exception Sleep_blocked

(* The per-execution decision callbacks. [free]/[costly] partition the
   schedulable threads: picking a costly one consumes a preemption.
   [pending t] is the access footprint of thread [t]'s next step (the
   suspension it would resume from); [flusher t] tells a virtual flusher id
   from a thread id. [note_end ~voluntary ~yielded] is called by the engine
   right after each chosen step runs to its next suspension, reporting
   whether that suspension is voluntary and whether the step's thread is
   left yielded — the reduction needs the end of a step to decide with
   which scope it may enter sleep sets under a preemption bound. *)
type decider = {
  decide_thread :
    free:int list ->
    costly:int list ->
    pending:(int -> Footprint.t) ->
    flusher:(int -> bool) ->
    int;
  decide_value : arity:int -> int;
  note_end : voluntary:bool -> yielded:bool -> unit;
}

type thread_state =
  | Ready of { resume : unit -> unit; abort : unit -> unit; fp : Footprint.t }
  | Blocked of {
      wake : unit -> bool;
      what : string;
      resume : unit -> unit;
      abort : unit -> unit;
      fp : Footprint.t;
    }
  | Finished

(* ------------------------------------------------------------------ *)
(* One execution                                                       *)
(* ------------------------------------------------------------------ *)

let run_one cfg ~(decider : decider) ~pruned ~setup =
  Exec_ctx.reset ();
  let threads = Rt.run_inline setup in
  (* Weak memory is a concurrent-mode concept: phase 1's serial enumeration
     synthesizes the sequential specification, which is memory-model
     independent, so serial exploration always runs SC. The model is active
     only between here and the end of this execution — [Rt.run_inline]
     contexts (setup above, the final observer after we return) see SC. *)
  let memory = if cfg.mode = Serial then Memory_model.Sc else cfg.memory in
  Exec_ctx.set_memory memory;
  Fun.protect ~finally:(fun () -> Exec_ctx.set_memory Memory_model.Sc) @@ fun () ->
  let n = Array.length threads in
  let status = Array.make n Finished in
  let yielded = Array.make n false in
  let last_running = ref None in
  let last_voluntary = ref true in
  let preemptions = ref 0 in
  let steps = ref 0 in
  let yields = ref 0 in
  let flushes = ref 0 in
  let choice_points = ref 0 in
  let errors = ref [] in
  let killing = ref false in
  let open Effect.Deep in
  let handler i =
    (* [fp] is the footprint of the step the thread will execute when next
       resumed: the access it suspends at. Boundary steps emit call/return
       events (event order is the history, so they never commute); yield
       steps interact with the fairness state and are kept opaque. *)
    let suspend ~voluntary ~fp k =
      status.(i) <-
        Ready { resume = (fun () -> continue k ()); abort = (fun () -> discontinue k Killed); fp };
      last_voluntary := voluntary
    in
    (* A drain obligation: the thread may not take its next step until its
       store buffers have emptied (via scheduler-chosen flushes). Used at
       RMWs, fences and operation-return markers under TSO/PSO; the blocked
       thread's pending footprint is that of the step it resumes into. *)
    let suspend_drain ~what ~fp k =
      status.(i) <-
        Blocked
          {
            wake = (fun () -> Exec_ctx.buffer_empty i);
            what;
            resume = (fun () -> continue k ());
            abort = (fun () -> discontinue k Killed);
            fp;
          };
      last_voluntary := true
    in
    {
      retc =
        (fun () ->
          status.(i) <- Finished;
          last_voluntary := true);
      exnc =
        (fun e ->
          status.(i) <- Finished;
          last_voluntary := true;
          match e with Killed -> () | e -> errors := (i, e) :: !errors);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Rt.Sched reason ->
            Some
              (fun (k : (b, unit) continuation) ->
                if !killing then continue k ()
                else begin
                  match reason, cfg.mode with
                  | (Rt.Access _ | Rt.Return_boundary | Rt.Fence), Serial ->
                    (* no mid-operation scheduling in serial mode; an
                       operation runs atomically through its return *)
                    continue k ()
                  | Rt.Access a, Concurrent ->
                    let fp = Footprint.access ~loc:a.loc ~kind:a.kind in
                    if
                      a.kind = Exec_ctx.Rmw
                      && memory <> Memory_model.Sc
                      && not (Exec_ctx.buffer_empty i)
                    then suspend_drain ~what:"store-buffer drain (rmw)" ~fp k
                    else suspend ~voluntary:false ~fp k
                  | Rt.Return_boundary, Concurrent ->
                    (* Drain-at-return: an operation's return event becomes
                       visible only once its stores are globally visible, so
                       histories stay complete and the final observer reads
                       fully flushed memory. *)
                    if memory <> Memory_model.Sc && not (Exec_ctx.buffer_empty i) then
                      suspend_drain ~what:"store-buffer drain (return)" ~fp:Footprint.event k
                    else suspend ~voluntary:true ~fp:Footprint.event k
                  | Rt.Fence, Concurrent ->
                    if memory <> Memory_model.Sc && not (Exec_ctx.buffer_empty i) then
                      suspend_drain ~what:"store-buffer drain (fence)" ~fp:Footprint.pure k
                    else suspend ~voluntary:true ~fp:Footprint.pure k
                  | Rt.Boundary, Concurrent -> suspend ~voluntary:true ~fp:Footprint.event k
                  | Rt.Boundary, Serial -> suspend ~voluntary:true ~fp:Footprint.event k
                end)
          | Rt.Block (wake, what, fp) ->
            Some
              (fun (k : (b, unit) continuation) ->
                if !killing then discontinue k Killed
                else begin
                  status.(i) <-
                    Blocked
                      {
                        wake;
                        what;
                        resume = (fun () -> continue k ());
                        abort = (fun () -> discontinue k Killed);
                        fp;
                      };
                  last_voluntary := true
                end)
          | Rt.Yield ->
            Some
              (fun (k : (b, unit) continuation) ->
                if !killing then continue k ()
                else begin
                  match cfg.mode with
                  | Serial ->
                    (* no mid-operation scheduling in serial mode; spin
                       loops that genuinely wait on another thread hit the
                       step budget and classify as stuck *)
                    continue k ()
                  | Concurrent ->
                    yielded.(i) <- true;
                    incr yields;
                    suspend ~voluntary:true ~fp:Footprint.unknown k
                end)
          | Rt.Choose (arity, _) ->
            Some
              (fun (k : (b, unit) continuation) ->
                if !killing then continue k 0
                else continue k (decider.decide_value ~arity))
          | _ -> None);
    }
  in
  Array.iteri
    (fun i body ->
      status.(i) <-
        Ready
          {
            resume = (fun () -> match_with body () (handler i));
            abort = (fun () -> status.(i) <- Finished);
            fp = Footprint.pure;
          })
    threads;
  let kill_all () =
    killing := true;
    Array.iter
      (fun st ->
        match st with
        | Ready { abort; _ } | Blocked { abort; _ } -> abort ()
        | Finished -> ())
      status
  in
  (* Wake predicates read shared state on behalf of the blocked thread;
     under weak memory {!Shared_var.peek} forwards from the current thread's
     store buffer, so the predicate must be evaluated with the blocked
     thread's identity installed (satellite of the peek/poke audit: a
     predicate must never observe another thread's un-flushed stores). *)
  let wake_holds i wake =
    let saved = Exec_ctx.current_tid () in
    Exec_ctx.set_current_tid i;
    let w = wake () in
    Exec_ctx.set_current_tid saved;
    w
  in
  (* Schedulable ids: real threads [0, n) plus one virtual flusher [n + u]
     per non-empty flush unit [u]. Flush ids flow through decisions, sleep
     sets and prefix serialization exactly like thread ids; unit indices are
     registration-ordered, hence deterministic across replays. *)
  let enabled_threads () =
    let acc = ref [] in
    if memory <> Memory_model.Sc then
      for u = Exec_ctx.flush_unit_count () - 1 downto 0 do
        if Option.is_some (Exec_ctx.flush_unit_pending u) then acc := (n + u) :: !acc
      done;
    for i = n - 1 downto 0 do
      match status.(i) with
      | Ready _ -> acc := i :: !acc
      | Blocked { wake; _ } -> if wake_holds i wake then acc := i :: !acc
      | Finished -> ()
    done;
    !acc
  in
  let blocked_threads () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match status.(i) with
      | Blocked _ -> acc := i :: !acc
      | Ready _ | Finished -> ()
    done;
    !acc
  in
  let pending t =
    if t >= n then
      (* A flusher's next step commits its unit's oldest store: a write to
         that store's location, which is what makes flush choices ordinary
         conflicting choices for the reduction. *)
      match Exec_ctx.flush_unit_pending (t - n) with
      | Some (loc, _) -> Footprint.access ~loc ~kind:Exec_ctx.Write
      | None -> Footprint.pure
    else
      match status.(t) with
      | Ready { fp; _ } | Blocked { fp; _ } -> fp
      | Finished -> Footprint.pure
  in
  let flusher t = t >= n in
  let resume_thread i =
    match status.(i) with
    | Ready { resume; _ } | Blocked { resume; _ } ->
      Exec_ctx.set_current_tid i;
      resume ()
    | Finished -> assert false
  in
  (* Start fusion: run each thread to its first suspension point, in thread
     order, before any scheduling decision. Sound because every modeled
     shared access performs its scheduling effect first — the prefix before
     a thread's first suspension cannot touch modeled shared state, so its
     position in the interleaving is irrelevant. (Value choices encountered
     in the prefix remain decision points.) *)
  let prerun_blocked = ref None in
  Array.iteri
    (fun i st ->
      match st with
      | Ready { resume; _ } ->
        Exec_ctx.set_current_tid i;
        resume ();
        if cfg.mode = Serial && Option.is_none !prerun_blocked then begin
          match status.(i) with
          | Blocked { wake; _ } when not (wake ()) -> prerun_blocked := Some i
          | Blocked _ | Ready _ | Finished -> ()
        end
      | Blocked _ | Finished -> ())
    status;
  let por_blocked = ref false in
  let rec loop () =
    if Option.is_some !prerun_blocked then begin
      kill_all ();
      Serial_stuck (Option.get !prerun_blocked)
    end
    else if !steps >= cfg.max_steps then begin
      kill_all ();
      Diverged
    end
    else begin
      let enabled = enabled_threads () in
      match enabled with
      | [] ->
        if Array.for_all (function Finished -> true | Ready _ | Blocked _ -> false) status
        then All_finished
        else begin
          let blocked = blocked_threads () in
          kill_all ();
          Deadlock blocked
        end
      | _ :: _ ->
        (* Fairness: don't reschedule a yielded thread while a non-yielded
           thread is enabled. Flushers (ids >= n) never yield. *)
        let candidates =
          match List.filter (fun i -> i >= n || not yielded.(i)) enabled with
          | [] -> enabled
          | non_yielded -> non_yielded
        in
        (* Partition into free and costly (preempting) choices. Flush
           choices are always free: a flush runs no thread, so it neither
           preempts the interrupted thread nor perturbs the preemption
           accounting around it ([last_running]/[last_voluntary] are left
           untouched when a flusher is chosen) — flush placement is explored
           exhaustively at every preemption bound. *)
        let free, costly =
          if !last_voluntary then candidates, []
          else begin
            match !last_running with
            | Some t when List.mem t candidates ->
              ( List.filter (fun c -> c = t || c >= n) candidates,
                List.filter (fun c -> c <> t && c < n) candidates )
            | Some _ | None -> candidates, []
          end
        in
        let free, costly =
          match cfg.preemption_bound with
          | Some bound when !preemptions >= bound ->
            pruned := !pruned + List.length costly;
            free, []
          | Some _ | None -> free, costly
        in
        (* A genuine scheduling decision: more than one continuation was
           schedulable. Counted outside the decider so replayed prefixes and
           fresh decisions weigh the same. *)
        if List.compare_length_with free 1 > 0 || costly <> [] then incr choice_points;
        match decider.decide_thread ~free ~costly ~pending ~flusher with
        | exception Sleep_blocked ->
          (* The reduction proved the continuation redundant; abandon the
             execution. The driver counts it and drops its history. *)
          por_blocked := true;
          kill_all ();
          All_finished
        | chosen when chosen >= n ->
          (* A flush step: commit the unit's oldest buffered store. It is a
             step for fairness (spinning threads get to re-run after it) but
             is transparent to preemption accounting. Its end is voluntary
             for the reduction's cost argument: a flush can move to any
             position without changing the cost of any context switch. *)
          if not (List.mem chosen free) then
            Fmt.invalid_arg "Explore: replayed decision chose unschedulable flusher %d" chosen;
          Array.iteri (fun j flag -> if flag then yielded.(j) <- false) yielded;
          incr steps;
          incr flushes;
          Exec_ctx.flush_one (chosen - n);
          decider.note_end ~voluntary:true ~yielded:false;
          loop ()
        | chosen ->
          if not (List.mem chosen free || List.mem chosen costly) then
            Fmt.invalid_arg "Explore: replayed decision chose unschedulable thread %d" chosen;
          if List.mem chosen costly then incr preemptions;
          Array.iteri (fun j flag -> if flag && j <> chosen then yielded.(j) <- false) yielded;
          incr steps;
          resume_thread chosen;
          decider.note_end ~voluntary:!last_voluntary ~yielded:yielded.(chosen);
          if
            cfg.mode = Serial
            && (match status.(chosen) with Blocked { wake; _ } -> not (wake ()) | _ -> false)
          then begin
            kill_all ();
            Serial_stuck chosen
          end
          else begin
            last_running := Some chosen;
            loop ()
          end
    end
  in
  let exec_end = loop () in
  {
    exec_end;
    steps = !steps;
    preemptions = !preemptions;
    yields = !yields;
    flushes = !flushes;
    choice_points = !choice_points;
    errors = List.rev !errors;
    por_pruned = !por_blocked;
  }

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction (sleep sets + backtrack sets)       *)
(* ------------------------------------------------------------------ *)

(* Per-execution reduction state. [path] is the executed steps of the
   current execution, newest first, each carrying the thread, the step's
   footprint and the decision record it was chosen at — the substrate of
   the last-conflicting-access analysis. [sleep] is the current sleep set:
   threads whose pending step commutes with everything executed since an
   explored sibling covered them. [backtracks] survives the execution (it
   accumulates into the run statistics).

   Soundness under a preemption bound. Classic DPOR (lazy backtrack sets)
   and classic sleep sets both justify pruning by commuting independent
   steps: the pruned execution has a Mazurkiewicz-equivalent witness in an
   explored sibling subtree. Under a finite preemption bound that argument
   breaks, because commuting adjacent steps can shift which context
   switches count as preemptions — the witness may cost more than the
   bound even though the pruned execution did not, so the "covered"
   behavior is in fact never explored (observable as lost histories).

   The bounded mode therefore branches eagerly (every schedulable
   alternative is an untried sibling, exactly like the unreduced explorer)
   and takes its reduction from sleep sets alone, with a cost-aware
   admission rule: an explored sibling [x] may enter the sleep set only if
   (a) [x] was a free (non-preempting) choice at its node and (b) [x]'s
   step ends at a voluntary suspension. Under (a) and (b), moving [x] from
   any later position of a pruned execution to the front costs no extra
   preemption at any prefix: (a) makes the switch into [x] free, (b) makes
   the switch out of [x] free, and the bridged transition where [x] was
   removed can only get cheaper (the step before it keeps its end kind and
   [x] ran on a different thread). So the commuted witness respects the
   same budget and the sibling subtree really contains it. Steps end
   deterministically (same state, same step), so (b) — observed when the
   sibling executed — is a property of the node, not of one execution.

   Flushes need neither condition. A flush is always free and leaves
   [last_running]/[last_voluntary] untouched, so moving [x] back past
   adjacent flushes it does not conflict with changes the cost of no
   context switch. An explored sibling failing (a)/(b) therefore still
   sleeps in a later flush sibling, with scope [Across_flushes]: it stays
   asleep over consecutive non-conflicting flushes and wakes at the first
   thread step. The pruned order [f1 .. fk x] and the witness [x f1 .. fk]
   then reach the same state, fairness flags included — the flushes clear
   every [yielded] flag in both orders — provided [x]'s step does not leave
   [x] yielded; a step that does gets no scope (DESIGN.md §7).

   Without a bound every schedule is affordable, the cost argument is
   vacuous, and the full lazy DPOR (persistent/backtrack sets + unrestricted
   sleep sets) applies. *)
type por = {
  bounded : bool;
  mutable path : (int * Footprint.t * decision) list;
  mutable sleep : (int * scope) list;
  backtracks : int ref;
}

let asleep q sleep = List.mem_assoc q sleep

let por_fresh ~bounded ~backtracks = { bounded; path = []; sleep = []; backtracks }

(* Request that sibling [q] be explored at decision [d]. No-op on frozen
   (frontier-prefix) records — their siblings are other partitions — and on
   choices already chosen, explored, pending or asleep at [d]. *)
let por_request por d q =
  match d with
  | Thread t when not t.frozen ->
    if
      q <> t.chosen
      && (not (List.mem_assoc q t.explored))
      && (not (List.mem q t.untried))
      && not (asleep q t.sleep)
    then begin
      t.untried <- t.untried @ [ q ];
      incr por.backtracks
    end
  | Thread _ | Value _ -> ()

(* The dynamic backtrack-set computation, run at every scheduling point for
   every schedulable candidate [q]: find the most recent executed step of a
   different thread whose footprint conflicts with [q]'s pending step, and
   request [q] (or, if [q] was not schedulable there, every choice that
   was) at that point. Only used without a preemption bound — the bounded
   mode branches eagerly and reduces with sleep sets alone (see {!por}). *)
let por_analyze por ~candidates ~pending =
  List.iter
    (fun q ->
      let fq = pending q in
      let rec scan = function
        | [] -> ()
        | (t', fp', d') :: rest ->
          if t' <> q && Footprint.conflicts fp' fq then begin
            match d' with
            | Thread t when not t.frozen ->
              if List.mem q t.candidates then por_request por d' q
              else List.iter (fun c -> por_request por d' c) t.candidates
            | Thread _ | Value _ -> ()
          end
          else scan rest
      in
      scan por.path)
    candidates

(* Commit the choice of [c] at decision [d]: record the executed step's
   footprint, push it on the path, and propagate the sleep set — explored
   siblings join it, every member whose pending step conflicts with the
   chosen step wakes up, and a thread step also wakes every member that only
   sleeps across flushes. *)
let por_after_choice por d ~pending ~flusher c =
  let fc = pending c in
  (match d with
   | Thread t -> t.fp <- fc
   | Value _ -> ());
  let seed = match d with Thread t -> t.explored @ por.sleep | Value _ -> por.sleep in
  (* Nothing sleeps at most decisions; skip the filter's allocation there. *)
  (match seed with
   | [] -> ()
   | _ :: _ ->
     por.sleep <-
       List.sort_uniq compare
         (List.filter
            (fun (t, scope) ->
              t <> c
              && (scope = Always || flusher c)
              && not (Footprint.conflicts (pending t) fc))
            seed));
  por.path <- (c, fc, d) :: por.path

(* ------------------------------------------------------------------ *)
(* Depth-first systematic exploration with backtracking                *)
(* ------------------------------------------------------------------ *)

(* Builds the decider used for one DFS execution: consume the replay prefix,
   then make fresh decisions (preferring to continue the last-running thread)
   while recording untried alternatives. With [?por] the decider runs the
   reduction: without a preemption bound, fresh decisions start with lazy
   backtrack sets instead of all alternatives; under a finite bound they
   branch eagerly and only the cost-aware sleep sets prune (see {!por}).
   Either way sleeping candidates are never chosen, and a point whose every
   candidate sleeps raises {!Sleep_blocked}. *)
let dfs_decider ?por ~replay ~trace ~last_running () =
  let replay_left = ref replay in
  let pop_replayed () =
    match !replay_left with
    | [] -> None
    | d :: rest ->
      replay_left := rest;
      Some d
  in
  let record d = trace := d :: !trace in
  (* The scope [chosen] would sleep with, before its step's end is known. *)
  let initial_scope p ~free chosen =
    if (not p.bounded) || List.mem chosen free then Some Always else Some Across_flushes
  in
  let decide_thread ~free ~costly ~pending ~flusher =
    match pop_replayed () with
    | Some (Thread t as d) ->
      record d;
      (match por with
       | Some p ->
         if not t.frozen then begin
           let candidates = free @ costly in
           if not p.bounded then por_analyze p ~candidates ~pending;
           (* Refresh the path-determined bookkeeping: the candidate sets
              are deterministic under replay, the entry sleep set is not
              stored across executions but recomputed along the path. *)
           t.candidates <- candidates;
           t.free <- free;
           t.sleep <- p.sleep;
           t.scope <- initial_scope p ~free t.chosen
         end;
         por_after_choice p d ~pending ~flusher t.chosen
       | None -> ());
      t.chosen
    | Some (Value _) -> invalid_arg "Explore: replay mismatch (expected thread decision)"
    | None ->
      let all = free @ costly in
      (match por with
       | None ->
         let chosen =
           match !last_running with
           | Some t when List.mem t all -> t
           | _ -> List.fold_left min (List.hd all) all
         in
         let untried = List.filter (fun c -> c <> chosen) all in
         record (thread_decision chosen ~untried ~sleep:[] ~candidates:all ~free);
         chosen
       | Some p ->
         if not p.bounded then por_analyze p ~candidates:all ~pending;
         let sleep = p.sleep in
         let awake = List.filter (fun c -> not (asleep c sleep)) all in
         (match awake with
          | [] -> raise Sleep_blocked
          | _ :: _ ->
            let chosen =
              match !last_running with
              | Some t when List.mem t awake -> t
              | _ -> List.fold_left min (List.hd awake) awake
            in
            (* Lazy backtracking is only sound without a preemption bound;
               under a bound every alternative is eager (like the unreduced
               explorer) and the cost-aware sleep sets do the pruning. *)
            let untried =
              if p.bounded then List.filter (fun c -> c <> chosen && not (asleep c sleep)) all
              else []
            in
            let d = thread_decision chosen ~untried ~sleep ~candidates:all ~free in
            record d;
            (match d with
             | Thread t -> t.scope <- initial_scope p ~free chosen
             | Value _ -> ());
            por_after_choice p d ~pending ~flusher chosen;
            chosen))
  in
  let decide_value ~arity =
    match pop_replayed () with
    | Some (Value v as d) ->
      if v.arity <> arity then invalid_arg "Explore: replay mismatch (choice arity)";
      record d;
      v.chosen
    | Some (Thread _) -> invalid_arg "Explore: replay mismatch (expected value decision)"
    | None ->
      let d = Value { chosen = 0; untried = List.init (arity - 1) (fun i -> i + 1); arity } in
      record d;
      0
  in
  (* Observe each step's end as it suspends: under a bound, a chosen step
     that ends involuntarily fails condition (b) of the cost argument at
     {!por} and only sleeps across flushes; one that failed (a) or (b) and
     leaves its thread yielded does not sleep at all. The head of the path
     is the decision whose step just ran. *)
  let note_end ~voluntary ~yielded =
    match por with
    | Some p when p.bounded -> (
      match p.path with
      | (_, _, Thread t) :: _ ->
        t.scope <-
          (match t.scope with
           | Some Always when not voluntary -> Some Across_flushes
           | Some Across_flushes when yielded -> None
           | s -> s)
      | (_, _, Value _) :: _ | [] -> ())
    | Some _ | None -> ()
  in
  { decide_thread; decide_value; note_end }

(* Find the deepest decision with an untried alternative, mutate it to take
   that alternative, and return the new replay prefix (in execution order).
   Alternatives that entered the sleep set after they were requested are
   dropped — their subtrees were covered by a sibling in the meantime. *)
let next_prefix trace_rev =
  let rec go = function
    | [] -> None
    | d :: rest -> (
      match d with
      | Thread t -> (
        let rec pick = function
          | [] -> None
          | x :: xs when asleep x t.sleep -> pick xs
          | x :: xs -> Some (x, xs)
        in
        match pick t.untried with
        | None ->
          t.untried <- [];
          go rest
        | Some (x, xs) ->
          (match t.scope with
           | Some scope -> t.explored <- (t.chosen, scope) :: t.explored
           | None -> ());
          t.scope <- None;
          t.chosen <- x;
          t.untried <- xs;
          Some (List.rev (d :: rest)))
      | Value v -> (
        match v.untried with
        | [] -> go rest
        | x :: xs ->
          v.chosen <- x;
          v.untried <- xs;
          Some (List.rev (d :: rest))))
  in
  go trace_rev

let exec_end_label = function
  | All_finished -> "finished"
  | Deadlock _ -> "deadlock"
  | Serial_stuck _ -> "serial-stuck"
  | Diverged -> "diverged"

(* One trace event per completed execution — granular enough to reconstruct
   the exploration timeline, coarse enough not to matter on hot paths (a
   single atomic load when tracing is off). *)
let trace_execution ~kind ~depth (o : exec_outcome) =
  if Lineup_observe.Trace.enabled () then
    Lineup_observe.Trace.emit "explore.execution"
      ([
         "kind", Lineup_observe.Trace.Str kind;
         "end", Lineup_observe.Trace.Str (exec_end_label o.exec_end);
         "steps", Lineup_observe.Trace.Int o.steps;
         "preemptions", Lineup_observe.Trace.Int o.preemptions;
         "yields", Lineup_observe.Trace.Int o.yields;
         "choice_points", Lineup_observe.Trace.Int o.choice_points;
         "depth", Lineup_observe.Trace.Int depth;
       ]
      @ (if o.flushes > 0 then [ "flushes", Lineup_observe.Trace.Int o.flushes ] else []))

let never_filtered (_ : exec_outcome) = true

(* The general DFS driver: start replaying from [replay0] (its decisions
   must carry empty [untried] lists when they are meant to stay frozen, as
   {!explore_from}'s thawed prefixes do) and enumerate the subtree below.

   [admit] is the hoisted admission filter: an execution it rejects is
   counted in [exact_bound_skips] and never reaches [on_execution] — the
   caller's per-execution work (history construction, checking) is skipped
   entirely, not merely discarded post-hoc.

   POR runs in concurrent mode only: phase 1's serial enumeration is the
   completeness-critical synthesis of the sequential specification (§4.3),
   and every serial interleaving is a distinct history by construction, so
   there is nothing sound to reduce there. *)
let explore_replay cfg ?(admit = never_filtered) ~replay0 ~setup ~on_execution () =
  let por_on = cfg.por && cfg.mode = Concurrent in
  let executions = ref 0 in
  let total_steps = ref 0 in
  let deadlocks = ref 0 in
  let divergences = ref 0 in
  let serial_stucks = ref 0 in
  let max_depth = ref 0 in
  let pruned = ref 0 in
  let preempt_spent = ref 0 in
  let yields = ref 0 in
  let choice_points = ref 0 in
  let skips = ref 0 in
  let sleep_blocked = ref 0 in
  let flushes = ref 0 in
  let backtracks = ref 0 in
  let complete = ref true in
  let replay = ref replay0 in
  let continue_ = ref true in
  while !continue_ do
    (* [last_running] mirrors the engine's notion for the decider's
       continue-current preference; the engine exposes it implicitly through
       decision order, so we track it via a shared cell updated by a wrapper. *)
    let trace = ref [] in
    let last_running = ref None in
    let por =
      if por_on then
        Some (por_fresh ~bounded:(Option.is_some cfg.preemption_bound) ~backtracks)
      else None
    in
    let base = dfs_decider ?por ~replay:!replay ~trace ~last_running () in
    let decider =
      {
        base with
        decide_thread =
          (fun ~free ~costly ~pending ~flusher ->
            let c = base.decide_thread ~free ~costly ~pending ~flusher in
            last_running := Some c;
            c);
      }
    in
    let outcome = run_one cfg ~decider ~pruned ~setup in
    total_steps := !total_steps + outcome.steps;
    let depth = List.length !trace in
    if depth > !max_depth then max_depth := depth;
    if outcome.por_pruned then begin
      (* Sleep-set blocked: the execution was abandoned as redundant. Its
         partial trace still drives the backtracking, but it is not an
         execution of the program — no outcome is reported. *)
      incr sleep_blocked;
      trace_execution ~kind:"dfs-sleep-blocked" ~depth outcome
    end
    else begin
      incr executions;
      preempt_spent := !preempt_spent + outcome.preemptions;
      yields := !yields + outcome.yields;
      flushes := !flushes + outcome.flushes;
      choice_points := !choice_points + outcome.choice_points;
      (match outcome.exec_end with
       | Deadlock _ -> incr deadlocks
       | Diverged -> incr divergences
       | Serial_stuck _ -> incr serial_stucks
       | All_finished -> ());
      trace_execution ~kind:"dfs" ~depth outcome;
      if not (admit outcome) then incr skips
      else begin
        match on_execution outcome with
        | `Stop ->
          continue_ := false;
          complete := false
        | `Continue -> ()
      end
    end;
    if !continue_ then begin
      match next_prefix !trace with
      | None -> continue_ := false
      | Some prefix -> (
        replay := prefix;
        match cfg.max_executions with
        | Some cap when !executions >= cap ->
          continue_ := false;
          complete := false
        | Some _ | None -> ())
    end
  done;
  {
    executions = !executions;
    total_steps = !total_steps;
    deadlocks = !deadlocks;
    divergences = !divergences;
    serial_stucks = !serial_stucks;
    max_depth = !max_depth;
    pruned_choices = !pruned;
    preemptions_spent = !preempt_spent;
    yields = !yields;
    choice_points = !choice_points;
    exact_bound_skips = !skips;
    sleep_set_skips = !sleep_blocked;
    backtrack_points = !backtracks;
    flushes = !flushes;
    complete = !complete;
  }

let explore cfg ?admit ~setup ~on_execution () =
  explore_replay cfg ?admit ~replay0:[] ~setup ~on_execution ()

(* ------------------------------------------------------------------ *)
(* Frontier splitting: depth-k prefix partitions for intra-check         *)
(* parallelism                                                           *)
(* ------------------------------------------------------------------ *)

type choice =
  | Sched_choice of int
  | Value_choice of { chosen : int; arity : int }

type prefix = choice list

type frontier = {
  prefixes : prefix list;
  warmup : stats;
}

(* Textual transport encoding of a decision prefix, for handing partitions
   to other processes and for on-disk checkpoints: choices are ';'-joined
   tokens, [sN] for a thread choice and [vC/A] for a value choice of arity
   [A]. The format is total on its image and rejects anything else, so a
   corrupted or foreign checkpoint surfaces as [Error] rather than as a
   bogus replay. *)
let prefix_to_string p =
  String.concat ";"
    (List.map
       (function
         | Sched_choice t -> Printf.sprintf "s%d" t
         | Value_choice { chosen; arity } -> Printf.sprintf "v%d/%d" chosen arity)
       p)

let prefix_of_string s =
  let choice_of_token tok =
    let num sub =
      match int_of_string_opt sub with
      | Some n when n >= 0 -> Ok n
      | Some _ | None -> Error (Printf.sprintf "Explore.prefix_of_string: bad number %S" sub)
    in
    if tok = "" then Error "Explore.prefix_of_string: empty token"
    else
      match tok.[0], String.index_opt tok '/' with
      | 's', None -> (
        match num (String.sub tok 1 (String.length tok - 1)) with
        | Ok t -> Ok (Sched_choice t)
        | Error _ as e -> e)
      | 'v', Some slash -> (
        match
          ( num (String.sub tok 1 (slash - 1)),
            num (String.sub tok (slash + 1) (String.length tok - slash - 1)) )
        with
        | Ok chosen, Ok arity when chosen < arity -> Ok (Value_choice { chosen; arity })
        | Ok _, Ok _ -> Error (Printf.sprintf "Explore.prefix_of_string: chosen >= arity in %S" tok)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      | _ -> Error (Printf.sprintf "Explore.prefix_of_string: unrecognized token %S" tok)
  in
  if s = "" then Ok []
  else
    List.fold_right
      (fun tok acc ->
        match acc with
        | Error _ as e -> e
        | Ok rest -> (
          match choice_of_token tok with Ok c -> Ok (c :: rest) | Error _ as e -> e))
      (String.split_on_char ';' s)
      (Ok [])

let freeze_decisions ds =
  List.map
    (function
      | Thread t -> Sched_choice t.chosen
      | Value v -> Value_choice { chosen = v.chosen; arity = v.arity })
    ds

(* Thawed prefixes carry no untried alternatives and are marked frozen:
   [next_prefix] can never flip a prefix decision and the reduction never
   requests siblings there, which is what confines {!explore_from} to the
   partition's subtree. *)
let thaw_prefix p =
  List.map
    (function
      | Sched_choice chosen ->
        Thread
          {
            chosen;
            untried = [];
            explored = [];
            sleep = [];
            candidates = [];
            free = [];
            fp = Footprint.pure;
            scope = None;
            frozen = true;
          }
      | Value_choice { chosen; arity } -> Value { chosen; untried = []; arity })
    p

let take_at_most n l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

let explore_from cfg ?admit ~prefix ~setup ~on_execution () =
  explore_replay cfg ?admit ~replay0:(thaw_prefix prefix) ~setup ~on_execution ()

(* The warm-up of {!split} at [depth >= 1]. *)
let warm_up cfg ~depth ~setup ~on_execution =
  (* The warm-up is the DFS of {!explore} with backtracking restricted to
     the first [depth] decisions: each execution realizes exactly one
     depth-<=[depth] decision prefix, and mutating only those decisions
     enumerates every such prefix once, in canonical DFS order. Decisions
     past the cut are executed (an execution cannot stop mid-flight) but
     their alternatives are left to the per-partition exploration.

     The warm-up always runs unreduced (por off): the frontier must
     partition the full choice tree so that the partition set — and hence
     the [-j] merge order — is identical with and without the reduction;
     each partition then explores its own subtree reduced. Cross-partition
     redundancy that monolithic POR would have pruned is the price of a
     [-j]-independent frontier. *)
  let cfg = { cfg with por = false } in
  let executions = ref 0 in
  let total_steps = ref 0 in
  let deadlocks = ref 0 in
  let divergences = ref 0 in
  let serial_stucks = ref 0 in
  let max_depth_ = ref 0 in
  let pruned = ref 0 in
  let preempt_spent = ref 0 in
  let yields = ref 0 in
  let flushes = ref 0 in
  let choice_points = ref 0 in
  let complete = ref true in
  let prefixes = ref [] in
  let replay = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let trace = ref [] in
    let last_running = ref None in
    let base = dfs_decider ~replay:!replay ~trace ~last_running () in
    let decider =
      {
        base with
        decide_thread =
          (fun ~free ~costly ~pending ~flusher ->
            let c = base.decide_thread ~free ~costly ~pending ~flusher in
            last_running := Some c;
            c);
      }
    in
    let outcome = run_one cfg ~decider ~pruned ~setup in
    incr executions;
    total_steps := !total_steps + outcome.steps;
    preempt_spent := !preempt_spent + outcome.preemptions;
    yields := !yields + outcome.yields;
    flushes := !flushes + outcome.flushes;
    choice_points := !choice_points + outcome.choice_points;
    (match outcome.exec_end with
     | Deadlock _ -> incr deadlocks
     | Diverged -> incr divergences
     | Serial_stuck _ -> incr serial_stucks
     | All_finished -> ());
    let tr = List.rev !trace in
    let cut = take_at_most depth tr in
    let d = List.length tr in
    if d > !max_depth_ then max_depth_ := d;
    trace_execution ~kind:"split-warmup" ~depth:d outcome;
    (* Freeze before [next_prefix] mutates the shared decision records. *)
    prefixes := freeze_decisions cut :: !prefixes;
    (match on_execution outcome with
     | `Stop ->
       continue_ := false;
       complete := false
     | `Continue -> ());
    if !continue_ then begin
      match next_prefix (List.rev cut) with
      | None -> continue_ := false
      | Some p -> (
        replay := p;
        match cfg.max_executions with
        | Some cap when !executions >= cap ->
          continue_ := false;
          complete := false
        | Some _ | None -> ())
    end
  done;
  {
    prefixes = List.rev !prefixes;
    warmup =
      {
        executions = !executions;
        total_steps = !total_steps;
        deadlocks = !deadlocks;
        divergences = !divergences;
        serial_stucks = !serial_stucks;
        max_depth = !max_depth_;
        pruned_choices = !pruned;
        preemptions_spent = !preempt_spent;
        yields = !yields;
        choice_points = !choice_points;
        exact_bound_skips = 0;
        sleep_set_skips = 0;
        backtrack_points = 0;
        flushes = !flushes;
        complete = !complete;
      };
  }

let split cfg ~depth ~setup ~on_execution =
  if depth < 0 then invalid_arg "Explore.split: depth must be >= 0";
  (* Depth 0 is the trivial frontier: the empty prefix pins nothing, so its
     one partition is the whole tree and no warm-up execution is needed. *)
  if depth = 0 then { prefixes = [ [] ]; warmup = empty_stats }
  else warm_up cfg ~depth ~setup ~on_execution

let explore_iterative cfg ~max_bound ~setup ~on_execution =
  let stopped_at = ref None in
  let rec go bound acc =
    if bound > max_bound || Option.is_some !stopped_at then List.rev acc
    else begin
      (* Exact-bound admission, hoisted into the explorer: a schedule
         spending c < bound preemptions was already admitted when the sweep
         ran at bound c. The bound-b tree necessarily re-executes it on the
         way to the new leaves, but the admission filter rejects it before
         any per-execution work (history construction, checking) happens —
         it is counted in [stats.exact_bound_skips] and nothing else. *)
      let admit (o : exec_outcome) = not (bound > 0 && o.preemptions < bound) in
      let stats =
        explore
          { cfg with preemption_bound = Some bound }
          ~admit ~setup
          ~on_execution:(fun outcome ->
            match on_execution outcome with
            | `Stop ->
              stopped_at := Some bound;
              `Stop
            | `Continue -> `Continue)
          ()
      in
      go (bound + 1) (stats :: acc)
    end
  in
  let all = go 0 [] in
  all, !stopped_at

(* ------------------------------------------------------------------ *)
(* Random-walk baseline                                                *)
(* ------------------------------------------------------------------ *)

let random_walk cfg ~rng ~executions:target ~setup ~on_execution =
  let executions = ref 0 in
  let total_steps = ref 0 in
  let deadlocks = ref 0 in
  let divergences = ref 0 in
  let serial_stucks = ref 0 in
  let pruned = ref 0 in
  let preempt_spent = ref 0 in
  let yields = ref 0 in
  let flushes = ref 0 in
  let choice_points = ref 0 in
  let continue_ = ref true in
  while !continue_ && !executions < target do
    let decider =
      {
        decide_thread =
          (fun ~free ~costly ~pending:_ ~flusher:_ ->
            let all = Array.of_list (free @ costly) in
            all.(Random.State.int rng (Array.length all)));
        decide_value = (fun ~arity -> Random.State.int rng arity);
        note_end = (fun ~voluntary:_ ~yielded:_ -> ());
      }
    in
    let outcome = run_one cfg ~decider ~pruned ~setup in
    incr executions;
    total_steps := !total_steps + outcome.steps;
    preempt_spent := !preempt_spent + outcome.preemptions;
    yields := !yields + outcome.yields;
    flushes := !flushes + outcome.flushes;
    choice_points := !choice_points + outcome.choice_points;
    (match outcome.exec_end with
     | Deadlock _ -> incr deadlocks
     | Diverged -> incr divergences
     | Serial_stuck _ -> incr serial_stucks
     | All_finished -> ());
    trace_execution ~kind:"random-walk" ~depth:0 outcome;
    match on_execution outcome with
    | `Stop -> continue_ := false
    | `Continue -> ()
  done;
  {
    executions = !executions;
    total_steps = !total_steps;
    deadlocks = !deadlocks;
    divergences = !divergences;
    serial_stucks = !serial_stucks;
    max_depth = 0;
    pruned_choices = !pruned;
    preemptions_spent = !preempt_spent;
    yields = !yields;
    choice_points = !choice_points;
    exact_bound_skips = 0;
    sleep_set_skips = 0;
    backtrack_points = 0;
    flushes = !flushes;
    complete = false;
  }
