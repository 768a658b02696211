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
   wakes at the first thread step. A step settled [Unscoped] does not enter
   sibling sleep sets at all. *)
type scope = Unscoped | Always | Across_flushes

(* A sleep-set member is one immediate: the sibling's id shifted past one
   bit, set for [Across_flushes]. Sorted members are sorted by id, then
   [Always] before [Across_flushes]. *)
let sleeper id scope = (id lsl 1) lor if scope = Across_flushes then 1 else 0
let sleeper_id m = m lsr 1
let sleeps_always m = m land 1 = 0

let rec asleep q = function [] -> false | m :: rest -> sleeper_id m = q || asleep q rest

(* Decision records are shared between the replay prefix and the trace being
   built, so mutating them during backtracking persists into the next
   execution. A [Thread] decision is a full choice point: besides the chosen
   thread and its pending alternatives it carries what the step loop derived
   at the node on its first visit ([facts]), the footprint of the executed
   step and the sleep-set bookkeeping the partial-order reduction maintains
   across siblings ([explored], [sleep], [leaves]). Outside POR mode the
   reduction's fields stay empty. The fields a replayed step writes —
   [facts] and [scope] — are immediates. *)
type decision =
  | Thread of {
      mutable chosen : int;
      mutable untried : int list;
      mutable explored : int list;
          (** siblings already fully explored, as sleep-set members *)
      mutable sleep : int list;  (** sleep set on entry *)
      mutable candidates : int list;
          (** all schedulable choices here; kept only for the unbounded
              reduction's conflict scan *)
      mutable fp : Footprint.t;  (** footprint of the executed step *)
      mutable scope : scope;
          (** the scope with which [chosen] enters sibling sleep sets once
              flipped past. [Always] under no bound; under a finite
              preemption bound [Always] only when [chosen] was a free choice
              whose step ended at a voluntary suspension, else
              [Across_flushes] unless its step left it yielded (see the
              soundness note at {!por}). *)
      mutable facts : int;
          (** what the step loop derived here for [chosen], packed by
              {!pack_facts}; [unvisited] until the node first runs *)
      mutable leaves : int list;  (** the sleep set [chosen]'s step leaves behind *)
      frozen : bool;  (** thawed frontier prefix: never backtracked *)
    }
  | Value of { mutable chosen : int; mutable untried : int list; arity : int }

let unvisited = -1

(* A node's facts in one int: bit 0 — more than one continuation was
   schedulable (a choice point); bit 1 — [chosen] preempted the running
   thread; the bits above — how many costly choices the preemption bound
   pruned here. *)
let choice_bit = 1
let preempted_bit = 2

let pack_facts ~choice ~preempted ~pruned =
  (pruned lsl 2) lor (if preempted then preempted_bit else 0) lor if choice then choice_bit else 0

exception Killed

(* Raised by a POR decider when every schedulable choice is in the sleep
   set: the execution's continuation only re-interleaves independent steps
   already covered by an explored sibling subtree. The engine kills the
   execution and the driver does not report it. *)
exception Sleep_blocked

(* The decision callbacks, built once per exploration.

   [start ()] is called before each execution.

   [replay ()] is the step loop's short case. When the next decision of the
   replay prefix is a [Thread] decision whose node already ran and that is
   not the prefix's last (the one {!next_prefix} flipped), it consumes the
   decision and returns it: the loop re-applies the node's [facts] and
   resumes [chosen] without deriving anything. Otherwise it returns
   {!no_replay} and the loop takes the full path.

   [decide_thread cand ~nfree ~ncostly] is the full path's choice among the
   schedulable ids [cand.(0) .. cand.(nfree + ncostly - 1)]: the free
   (non-preempting) ones, then the costly ones, each run ascending. Picking
   a costly one consumes a preemption. [pending t] is the access footprint
   of thread [t]'s next step (the suspension it would resume from);
   [flusher t] tells a virtual flusher id from a thread id.

   [settle ~facts ~voluntary ~yielded] is called right after each step runs
   to its next suspension, replayed or not: it records the node's facts and
   reports whether that suspension is voluntary and whether the step's
   thread is left yielded — the reduction needs the end of a step to decide
   with which scope it may enter sleep sets under a preemption bound. *)
type decider = {
  start : unit -> unit;
  replay : unit -> decision;
  decide_thread :
    int array ->
    nfree:int ->
    ncostly:int ->
    pending:(int -> Footprint.t) ->
    flusher:(int -> bool) ->
    int;
  decide_value : arity:int -> int;
  settle : facts:int -> voluntary:bool -> yielded:bool -> unit;
}

let no_replay = Value { chosen = 0; untried = []; arity = 0 }

(* The first [i < len] with [a.(i) = x], or [-1]. The step loop's helpers
   take every value as an argument: a local recursive function with free
   variables would allocate its closure on every call. *)
let rec index_from x a len i =
  if i >= len then -1 else if a.(i) = x then i else index_from x a len (i + 1)

let index_of x a len = index_from x a len 0

(* ------------------------------------------------------------------ *)
(* Executions                                                          *)
(* ------------------------------------------------------------------ *)

(* A thread's state between its steps. A suspended thread's continuation is
   in [conts], a blocked one's wake predicate in [wakes]. [Draining] is a
   drain obligation: the thread may not take its next step until its store
   buffers have emptied (via scheduler-chosen flushes). *)
type thread_state = Finished | Ready | Blocked | Draining

(* The state of the execution in progress. One engine serves every
   execution of an exploration: its handler, closures and arrays are built
   once and reset between executions. *)
type engine = {
  mutable n : int;  (** threads of the execution *)
  mutable status : thread_state array;
  mutable conts : (unit, unit) Effect.Deep.continuation array;
  mutable wakes : (unit -> bool) array;
  mutable yielded : bool array;
  mutable next_fp : Footprint.t array;
      (** the footprint of the step thread [i] runs when next resumed: the
          access it is suspended at. Boundary steps emit call/return events
          (event order is the history, so they never commute); yield steps
          interact with the fairness state and are kept opaque. *)
  mutable enabled : int array;
  mutable cand : int array;
  mutable running : int;  (** the thread whose fiber runs *)
  mutable last_running : int;
  mutable last_voluntary : bool;
  mutable facts : int;  (** the running step's facts, for [settle] *)
  mutable handoff : int;
      (** what the handler left the driver: the thread to resume, [ended],
          or [undecided] when the thread ran to its end *)
  mutable exec_end : exec_end;
  mutable prerun : bool;
  mutable killing : bool;
  mutable kill_budget : int;
      (** effects the thread being killed may still perform inline *)
  mutable kill_blocked : bool;  (** it has performed a [Block] since its kill *)
  mutable por_blocked : bool;
  mutable preemptions : int;
  mutable steps : int;
  mutable step_limit : int;
      (** [max_steps], less the effects a serial execution resumed at once,
          which are no steps *)
  mutable yields : int;
  mutable flushes : int;
  mutable choice_points : int;
  mutable errors : (int * exn) list;
}

let rec all_finished status i n = i >= n || (status.(i) = Finished && all_finished status (i + 1) n)

let undecided = -2
let ended = -1

(* The step loop. Each step ends at the handler of the effect that suspends
   its thread, and the handler decides the next step right there: when the
   same thread runs again it is continued in tail position, and flushes
   chosen in between run inline. The continuation is parked in [conts] only
   when another thread runs next or the execution ends; the driver then
   resumes the chosen thread, or kills the rest. A thread that runs to its
   end returns to the driver, which decides. [runner cfg ~decider ~pruned]
   returns the function that runs one execution of [setup]. *)
let runner cfg ~(decider : decider) ~pruned =
  (* Weak memory is a concurrent-mode concept: phase 1's serial enumeration
     synthesizes the sequential specification, which is memory-model
     independent, so serial exploration always runs SC. The model is active
     only while an execution is scheduled — [Rt.run_inline] contexts (setup,
     the final observer after it) see SC. *)
  let serial = cfg.mode = Serial in
  let memory = if serial then Memory_model.Sc else cfg.memory in
  let no_wake () = false in
  let e =
    {
      n = 0;
      status = [||];
      conts = [||];
      wakes = [||];
      yielded = [||];
      next_fp = [||];
      enabled = [||];
      cand = [||];
      running = 0;
      last_running = -1;
      last_voluntary = true;
      facts = 0;
      handoff = undecided;
      exec_end = All_finished;
      prerun = false;
      killing = false;
      kill_budget = 0;
      kill_blocked = false;
      por_blocked = false;
      preemptions = 0;
      steps = 0;
      step_limit = cfg.max_steps;
      yields = 0;
      flushes = 0;
      choice_points = 0;
      errors = [];
    }
  in
  let open Effect.Deep in
  let buffered () = memory <> Memory_model.Sc && not (Exec_ctx.buffer_empty e.running) in
  (* Wake predicates read shared state on behalf of the blocked thread;
     under weak memory {!Shared_var.peek} forwards from the current thread's
     store buffer, so the predicate must be evaluated with the blocked
     thread's identity installed (a predicate must never observe another
     thread's un-flushed stores). *)
  let wake_holds i wake =
    let saved = Exec_ctx.current_tid () in
    Exec_ctx.set_current_tid i;
    let w = wake () in
    Exec_ctx.set_current_tid saved;
    w
  in
  let schedulable i =
    match e.status.(i) with
    | Ready -> true
    | Blocked -> wake_holds i e.wakes.(i)
    | Draining -> Exec_ctx.buffer_empty i
    | Finished -> false
  in
  let blocked_threads () =
    let acc = ref [] in
    for i = e.n - 1 downto 0 do
      match e.status.(i) with
      | Blocked | Draining -> acc := i :: !acc
      | Ready | Finished -> ()
    done;
    !acc
  in
  let all_finished () = all_finished e.status 0 e.n in
  let pending t =
    if t >= e.n then
      (* A flusher's next step commits its unit's oldest store: a write to
         that store's location, which is what makes flush choices ordinary
         conflicting choices for the reduction. *)
      let loc = Exec_ctx.flush_unit_loc (t - e.n) in
      if loc >= 0 then Footprint.access ~loc ~kind:Exec_ctx.Write else Footprint.pure
    else
      match e.status.(t) with
      | Ready | Blocked | Draining -> e.next_fp.(t)
      | Finished -> Footprint.pure
  in
  let flusher t = t >= e.n in
  (* The full path's schedulable ids, in two buffers reused across steps
     ([enabled] is filtered in place, [cand] holds the free/costly
     partition): real threads [0, n) ascending, then one virtual flusher
     [n + u] per non-empty flush unit [u], ascending. Flush ids flow through
     decisions, sleep sets and prefix serialization exactly like thread ids;
     unit indices are registration-ordered, hence deterministic across
     replays. *)
  let fill_enabled () =
    let n = e.n in
    let units = if memory = Memory_model.Sc then 0 else Exec_ctx.flush_unit_count () in
    if n + units > Array.length e.enabled then begin
      e.enabled <- Array.make (2 * (n + units)) 0;
      e.cand <- Array.make (2 * (n + units)) 0
    end;
    let en = e.enabled in
    let m = ref 0 in
    for i = 0 to n - 1 do
      if schedulable i then begin
        en.(!m) <- i;
        incr m
      end
    done;
    for u = 0 to units - 1 do
      if Exec_ctx.flush_unit_loc u >= 0 then begin
        en.(!m) <- n + u;
        incr m
      end
    done;
    !m
  in
  let unschedulable c =
    Fmt.invalid_arg "Explore: replayed decision chose unschedulable %s %d"
      (if c >= e.n then "flusher" else "thread")
      c
  in
  let finish r =
    e.exec_end <- r;
    ended
  in
  (* The next step: flushes run here, and the thread that runs next is
     returned after its step's bookkeeping, or [ended]. *)
  let rec next () =
    if e.steps >= e.step_limit then finish Diverged
    else
      match decider.replay () with
      | Thread t ->
        (* The short case: a replayed node re-applies the facts its first
           visit derived. The check that [chosen] can run is O(1) (one wake
           predicate at most), so a program that is not deterministic given
           its decisions still fails loudly. *)
        let c = t.chosen and facts = t.facts in
        if facts land choice_bit <> 0 then e.choice_points <- e.choice_points + 1;
        pruned := !pruned + (facts lsr 2);
        if not (if c >= e.n then Exec_ctx.flush_unit_loc (c - e.n) >= 0 else schedulable c) then
          unschedulable c;
        take c facts
      | Value _ -> full_path ()
  and full_path () =
    let ne = fill_enabled () in
    if ne = 0 then
      if all_finished () then finish All_finished else finish (Deadlock (blocked_threads ()))
    else begin
      let n = e.n and en = e.enabled and cand = e.cand in
      (* Fairness: don't reschedule a yielded thread while a non-yielded
         thread is enabled. Flushers (ids >= n) never yield. *)
      let nc = ref 0 in
      for j = 0 to ne - 1 do
        let c = en.(j) in
        if c >= n || not e.yielded.(c) then begin
          en.(!nc) <- c;
          incr nc
        end
      done;
      let nc = if !nc = 0 then ne else !nc in
      (* Partition into free and costly (preempting) choices. Flush choices
         are always free: a flush runs no thread, so it neither preempts the
         interrupted thread nor perturbs the preemption accounting around it
         — flush placement is explored exhaustively at every preemption
         bound. *)
      let nfree = ref nc and ncostly = ref 0 in
      let t = e.last_running in
      if (not e.last_voluntary) && t >= 0 && index_of t en nc >= 0 then begin
        nfree := 0;
        for j = 0 to nc - 1 do
          let c = en.(j) in
          if c = t || c >= n then begin
            cand.(!nfree) <- c;
            incr nfree
          end
        done;
        for j = 0 to nc - 1 do
          let c = en.(j) in
          if c <> t && c < n then begin
            cand.(!nfree + !ncostly) <- c;
            incr ncostly
          end
        done
      end
      else Array.blit en 0 cand 0 nc;
      let pruned_here =
        match cfg.preemption_bound with
        | Some bound when e.preemptions >= bound ->
          let k = !ncostly in
          pruned := !pruned + k;
          ncostly := 0;
          k
        | Some _ | None -> 0
      in
      let nfree = !nfree and ncostly = !ncostly in
      (* A genuine scheduling decision: more than one continuation was
         schedulable. Counted outside the decider so replayed prefixes and
         fresh decisions weigh the same. *)
      let choice = nfree > 1 || ncostly > 0 in
      if choice then e.choice_points <- e.choice_points + 1;
      match decider.decide_thread cand ~nfree ~ncostly ~pending ~flusher with
      | exception Sleep_blocked ->
        (* The reduction proved the continuation redundant; abandon the
           execution. The driver counts it and drops its history. *)
        e.por_blocked <- true;
        finish All_finished
      | chosen ->
        let at = index_of chosen cand (nfree + ncostly) in
        if at < 0 then unschedulable chosen;
        take chosen (pack_facts ~choice ~preempted:(at >= nfree) ~pruned:pruned_here)
    end
  and take c facts =
    if c >= e.n then begin
      (* A flush step commits the unit's oldest buffered store. It is a step
         for fairness (spinning threads get to re-run after it) but is
         transparent to preemption accounting: [last_running] and
         [last_voluntary] are left untouched. Its end is voluntary for the
         reduction's cost argument: a flush can move to any position
         without changing the cost of any context switch. *)
      for j = 0 to e.n - 1 do
        e.yielded.(j) <- false
      done;
      e.steps <- e.steps + 1;
      e.flushes <- e.flushes + 1;
      Exec_ctx.flush_one (c - e.n);
      decider.settle ~facts ~voluntary:true ~yielded:false;
      next ()
    end
    else begin
      if facts land preempted_bit <> 0 then e.preemptions <- e.preemptions + 1;
      for j = 0 to e.n - 1 do
        if j <> c then e.yielded.(j) <- false
      done;
      e.steps <- e.steps + 1;
      e.facts <- facts;
      e.running <- c;
      Exec_ctx.set_current_tid c;
      c
    end
  in
  (* Thread [c]'s step has ended: settle it and decide the next. *)
  let after_step c =
    decider.settle ~facts:e.facts ~voluntary:e.last_voluntary ~yielded:e.yielded.(c);
    if serial && e.status.(c) = Blocked && not (e.wakes.(c) ()) then finish (Serial_stuck c)
    else begin
      e.last_running <- c;
      next ()
    end
  in
  let park i k =
    if i >= Array.length e.conts then begin
      let a = Array.make e.n k in
      Array.blit e.conts 0 a 0 (Array.length e.conts);
      e.conts <- a
    end;
    e.conts.(i) <- k
  in
  (* The running thread suspends in [state] before a step of footprint
     [fp]. *)
  let suspend state ~voluntary fp k =
    let c = e.running in
    e.status.(c) <- state;
    e.next_fp.(c) <- fp;
    e.last_voluntary <- voluntary;
    if e.prerun then park c k
    else
      let d = after_step c in
      if d = c then continue k ()
      else begin
        park c k;
        e.handoff <- d
      end
  in
  (* A serial execution runs each operation through its return: it resumes
     the operation's accesses, yields, return boundaries and fences at once,
     and none of them is a step. They count against [max_steps] all the
     same, so an operation that spins waiting for another thread ends its
     execution [Diverged] instead of running forever: past the budget its
     thread is parked, and [kill_all] ends it. *)
  let resume_serial k =
    e.step_limit <- e.step_limit - 1;
    if e.steps < e.step_limit then continue k ()
    else begin
      e.status.(e.running) <- Ready;
      park e.running k;
      e.handoff <- finish Diverged
    end
  in
  (* The effect being handled, stashed by [effc] for the handlers below. *)
  let reason = ref Rt.Boundary in
  let block_wake = ref no_wake in
  let block_fp = ref Footprint.unknown in
  let arity = ref 0 in
  (* A killed thread may catch [Killed] and take more steps, as
     [Mutex_.with_lock]'s release does; they run inline, and its first
     [Block] is answered with [Killed] again. One that swallows the kill and
     keeps going would never return, so past [max_steps] such effects, or at
     its second [Block], its continuation is dropped: never resumed, and
     named on the trace. OCaml does not free the stack of a continuation
     that is never resumed. *)
  let drop () =
    if Lineup_observe.Trace.enabled () then
      Lineup_observe.Trace.emit "explore.kill_drop" [ "tid", Lineup_observe.Trace.Int e.running ]
  in
  let kill_step () =
    e.kill_budget <- e.kill_budget - 1;
    if e.kill_budget < 0 then drop ();
    e.kill_budget >= 0
  in
  let on_access =
    Some
      (fun (k : (unit, unit) continuation) ->
        if e.killing then (if kill_step () then continue k ())
        else if serial then resume_serial k
        else
          let fp = Rt.accessed () in
          if Footprint.is_rmw fp && buffered () then suspend Draining ~voluntary:true fp k
          else suspend Ready ~voluntary:false fp k)
  in
  let on_sched =
    Some
      (fun (k : (unit, unit) continuation) ->
        if e.killing then (if kill_step () then continue k ())
        else
          match !reason with
          | Rt.Boundary -> suspend Ready ~voluntary:true Footprint.event k
          | Rt.Return_boundary | Rt.Fence when serial -> resume_serial k
          | Rt.Return_boundary ->
            (* Drain-at-return: an operation's return event becomes visible
               only once its stores are globally visible, so histories stay
               complete and the final observer reads fully flushed memory. *)
            suspend (if buffered () then Draining else Ready) ~voluntary:true Footprint.event k
          | Rt.Fence ->
            suspend (if buffered () then Draining else Ready) ~voluntary:true Footprint.pure k)
  in
  let on_block =
    Some
      (fun (k : (unit, unit) continuation) ->
        if e.killing then begin
          if e.kill_blocked then drop ()
          else if kill_step () then begin
            e.kill_blocked <- true;
            discontinue k Killed
          end
        end
        else begin
          e.wakes.(e.running) <- !block_wake;
          suspend Blocked ~voluntary:true !block_fp k
        end)
  in
  let on_yield =
    Some
      (fun (k : (unit, unit) continuation) ->
        if e.killing then (if kill_step () then continue k ())
        else if serial then resume_serial k
        else begin
          e.yielded.(e.running) <- true;
          e.yields <- e.yields + 1;
          suspend Ready ~voluntary:true Footprint.unknown k
        end)
  in
  let on_choose =
    Some
      (fun (k : (int, unit) continuation) ->
        if e.killing then (if kill_step () then continue k 0)
        else continue k (decider.decide_value ~arity:!arity))
  in
  let handler =
    {
      retc =
        (fun () ->
          e.status.(e.running) <- Finished;
          e.last_voluntary <- true);
      exnc =
        (fun ex ->
          let i = e.running in
          e.status.(i) <- Finished;
          e.last_voluntary <- true;
          match ex with Killed -> () | ex -> e.errors <- (i, ex) :: e.errors);
      effc =
        (fun (type b) (eff : b Effect.t) : ((b, unit) continuation -> unit) option ->
          match eff with
          | Rt.Access -> on_access
          | Rt.Sched r ->
            reason := r;
            on_sched
          | Rt.Block (wake, _, fp) ->
            block_wake := wake;
            block_fp := fp;
            on_block
          | Rt.Yield -> on_yield
          | Rt.Choose (a, _) ->
            arity := a;
            on_choose
          | _ -> None);
    }
  in
  let kill_all () =
    e.killing <- true;
    for i = 0 to e.n - 1 do
      match e.status.(i) with
      | Ready | Draining | Blocked ->
        (* cleanup code run by the kill, such as [Mutex_.with_lock]'s
           release, must see its own thread *)
        e.running <- i;
        Exec_ctx.set_current_tid i;
        e.kill_budget <- cfg.max_steps;
        e.kill_blocked <- false;
        discontinue e.conts.(i) Killed
      | Finished -> ()
    done
  in
  let rec drive c =
    e.handoff <- undecided;
    continue e.conts.(c) ();
    let d = if e.handoff = undecided then after_step c else e.handoff in
    if d >= 0 then drive d
  in
  let execute threads =
    let n = Array.length threads in
    if n > Array.length e.status then begin
      e.status <- Array.make n Finished;
      e.wakes <- Array.make n no_wake;
      e.yielded <- Array.make n false;
      e.next_fp <- Array.make n Footprint.pure
    end;
    if n + 4 > Array.length e.enabled then begin
      e.enabled <- Array.make (n + 4) 0;
      e.cand <- Array.make (n + 4) 0
    end;
    e.n <- n;
    Array.fill e.status 0 n Finished;
    Array.fill e.yielded 0 n false;
    Array.fill e.next_fp 0 n Footprint.pure;
    e.last_running <- -1;
    e.last_voluntary <- true;
    e.exec_end <- All_finished;
    e.killing <- false;
    e.por_blocked <- false;
    e.preemptions <- 0;
    e.steps <- 0;
    e.step_limit <- cfg.max_steps;
    e.yields <- 0;
    e.flushes <- 0;
    e.choice_points <- 0;
    e.errors <- [];
    decider.start ();
    (* Start fusion: run each thread to its first suspension point, in
       thread order, before any scheduling decision. Sound because every
       modeled shared access performs its scheduling effect first — the
       prefix before a thread's first suspension cannot touch modeled shared
       state, so its position in the interleaving is irrelevant. (Value
       choices encountered in the prefix remain decision points.) *)
    e.prerun <- true;
    let prerun_blocked = ref (-1) in
    for i = 0 to n - 1 do
      e.running <- i;
      Exec_ctx.set_current_tid i;
      match_with threads.(i) () handler;
      if serial && !prerun_blocked < 0 && e.status.(i) = Blocked && not (e.wakes.(i) ()) then
        prerun_blocked := i
    done;
    e.prerun <- false;
    let first = if !prerun_blocked >= 0 then finish (Serial_stuck !prerun_blocked) else next () in
    if first >= 0 then drive first;
    kill_all ();
    {
      exec_end = e.exec_end;
      steps = e.steps;
      preemptions = e.preemptions;
      yields = e.yields;
      flushes = e.flushes;
      choice_points = e.choice_points;
      errors = List.rev e.errors;
      por_pruned = e.por_blocked;
    }
  in
  fun setup ->
    Exec_ctx.reset ();
    let threads = Rt.run_inline setup in
    Exec_ctx.set_memory memory;
    match execute threads with
    | outcome ->
      Exec_ctx.set_memory Memory_model.Sc;
      outcome
    | exception ex ->
      Exec_ctx.set_memory Memory_model.Sc;
      raise ex

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction (sleep sets + backtrack sets)       *)
(* ------------------------------------------------------------------ *)

(* The reduction's settings; [backtracks] accumulates into the run
   statistics. The current sleep set — threads whose pending step commutes
   with everything executed since an explored sibling covered them — is
   what the last thread decision left behind ([leaves]). The substrate of
   the last-conflicting-access analysis is the execution's own decision
   trace: each [Thread] decision on it carries the chosen thread and the
   footprint of the step it ran.

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
   sleep sets) applies.

   Replay. What a node's first visit computed before its step — its
   candidates, its entry sleep set and, for its [chosen], the step's [fp]
   and exit sleep set — is a function of its path, and stays valid while
   its subtree is explored: {!next_prefix} only flips the deepest decision
   with an untried alternative, so no ancestor of a live node ever
   changes. A replayed node therefore restores its exit sleep set
   ([leaves]) and nothing else, and a flipped one recomputes only what its
   new [chosen] changes. Neither runs the conflict scan: every request it
   would make was made on the node's first visit, to an ancestor that has
   not been flipped since, so it would find the sibling already chosen,
   explored, untried or asleep (DESIGN.md §6). *)

type por = {
  bounded : bool;
  backtracks : int ref;
}

(* Request that sibling [q] be explored at decision [d]. No-op on frozen
   (frontier-prefix) records — their siblings are other partitions — and on
   choices already chosen, explored, pending or asleep at [d]. *)
let por_request por d q =
  match d with
  | Thread t when not t.frozen ->
    if
      q <> t.chosen
      && (not (asleep q t.explored))
      && (not (List.mem q t.untried))
      && not (asleep q t.sleep)
    then begin
      t.untried <- t.untried @ [ q ];
      incr por.backtracks
    end
  | Thread _ | Value _ -> ()

(* The dynamic backtrack-set computation, run at every scheduling point the
   full path decides, for every schedulable candidate [q]: find the most
   recent executed step of a different thread among this execution's
   decisions so far, [trace.(0 .. len - 1)], whose footprint conflicts with
   [q]'s pending step, and request [q] (or, if [q] was not schedulable
   there, every choice that was) at that point. Only used without a
   preemption bound — the bounded mode branches eagerly and reduces with
   sleep sets alone (see {!por}). *)
let por_analyze por trace ~len ~candidates ~pending =
  List.iter
    (fun q ->
      let fq = pending q in
      let rec scan i =
        if i >= 0 then
          match trace.(i) with
          | Value _ -> scan (i - 1)
          | Thread t as d ->
            if t.chosen <> q && Footprint.conflicts t.fp fq then begin
              if not t.frozen then
                if List.mem q t.candidates then por_request por d q
                else List.iter (fun c -> por_request por d c) t.candidates
            end
            else scan (i - 1)
      in
      scan (len - 1))
    candidates

(* Commit the choice of [c] at [t], entered with sleep set [sleep]: record
   the executed step's footprint and propagate the sleep set — explored
   siblings join it, every member whose pending step conflicts with the
   chosen step wakes up, and a thread step also wakes every member that
   only sleeps across flushes. The result is what [t] leaves behind, for
   the next decision and for [t]'s replays. *)
let por_after_choice d ~sleep ~pending ~flusher c =
  match d with
  | Value _ -> ()
  | Thread t -> (
    let fc = pending c in
    t.fp <- fc;
    (* Nothing sleeps at most decisions; skip the filter's allocation there. *)
    match t.explored @ sleep with
    | [] -> t.leaves <- []
    | seed ->
      t.leaves <-
        List.sort_uniq Int.compare
          (List.filter
             (fun m ->
               sleeper_id m <> c
               && (sleeps_always m || flusher c)
               && not (Footprint.conflicts (pending (sleeper_id m)) fc))
             seed))

(* ------------------------------------------------------------------ *)
(* Depth-first systematic exploration with backtracking                *)
(* ------------------------------------------------------------------ *)

(* The decision trace of a DFS exploration: an array stack that the replay
   prefix and the current execution share. [trace.(0 .. prefix - 1)] is the
   prefix to replay, and [len] is the cursor: the number of decisions the
   current execution has taken, replayed or fresh. A fresh decision is
   pushed at [len]. *)
type dfs = {
  reduction : por option;
  mutable trace : decision array;
  mutable len : int;
  mutable prefix : int;
  mutable current : int;  (** index of the [Thread] decision whose step runs now, or -1 *)
  mutable last_chosen : int;
}

let dfs ?por prefix =
  let trace = Array.make (max 64 (2 * Array.length prefix)) no_replay in
  Array.blit prefix 0 trace 0 (Array.length prefix);
  { reduction = por; trace; len = 0; prefix = Array.length prefix; current = -1; last_chosen = -1 }

(* The sleep set now: what the last thread decision left behind. *)
let sleep_now d =
  if d.current < 0 then []
  else match d.trace.(d.current) with Thread t -> t.leaves | Value _ -> []

let push d i decision =
  if i >= Array.length d.trace then begin
    let a = Array.make (2 * i) no_replay in
    Array.blit d.trace 0 a 0 i;
    d.trace <- a
  end;
  d.trace.(i) <- decision

(* [cand.(0) .. cand.(i)] consed onto [acc], [chosen] and the asleep left
   out. *)
let rec untried_of cand i ~chosen sleep acc =
  if i < 0 then acc
  else
    let c = cand.(i) in
    untried_of cand (i - 1) ~chosen sleep
      (if c <> chosen && not (asleep c sleep) then c :: acc else acc)

(* [cand.(0) .. cand.(i)] consed onto [acc]. *)
let rec ids cand i acc = if i < 0 then acc else ids cand (i - 1) (cand.(i) :: acc)

(* The decider of a DFS exploration: consume the replay prefix, then make
   fresh decisions (preferring to continue the last-chosen id) while
   recording untried alternatives. With [d.reduction] the decider runs the
   reduction: without a preemption bound, fresh decisions start with lazy
   backtrack sets instead of all alternatives; under a finite bound they
   branch eagerly and only the cost-aware sleep sets prune (see {!por}).
   Either way sleeping candidates are never chosen, and a point whose every
   candidate sleeps raises {!Sleep_blocked}. A replayed step reads the
   trace through the cursor and writes immediates only. *)
let dfs_decider d =
  let take i c =
    d.len <- i + 1;
    d.current <- i;
    d.last_chosen <- c
  in
  let start () =
    d.len <- 0;
    d.current <- -1;
    d.last_chosen <- -1
  in
  let replay () =
    let i = d.len in
    if i + 1 < d.prefix then
      match d.trace.(i) with
      | Thread t as decision when t.facts <> unvisited ->
        take i t.chosen;
        decision
      | Thread _ | Value _ -> no_replay
    else no_replay
  in
  let decide_thread cand ~nfree ~ncostly ~pending ~flusher =
    let nall = nfree + ncostly in
    let i = d.len in
    if i < d.prefix then
      match d.trace.(i) with
      | Thread t as decision ->
        (* The decision {!next_prefix} flipped, or a frontier prefix's on its
           partition's first run. Its node's entry sleep set and candidates
           are its first visit's and its conflict scan would request nothing
           new (see {!por}); only the step of its new [chosen] is new. *)
        (match d.reduction with
         | Some _ -> por_after_choice decision ~sleep:(sleep_now d) ~pending ~flusher t.chosen
         | None -> ());
        take i t.chosen;
        t.chosen
      | Value _ -> invalid_arg "Explore: replay mismatch (expected thread decision)"
    else begin
      let sleep, candidates =
        match d.reduction with
        | None -> [], []
        | Some p ->
          let candidates = if p.bounded then [] else ids cand (nall - 1) [] in
          if not p.bounded then por_analyze p d.trace ~len:i ~candidates ~pending;
          sleep_now d, candidates
      in
      let chosen =
        let t = d.last_chosen in
        if t >= 0 && index_of t cand nall >= 0 && not (asleep t sleep) then t
        else begin
          let m = ref (-1) in
          for j = 0 to nall - 1 do
            let c = cand.(j) in
            if (not (asleep c sleep)) && (!m < 0 || c < !m) then m := c
          done;
          !m
        end
      in
      if chosen < 0 then raise Sleep_blocked;
      (* Lazy backtracking is only sound without a preemption bound; under
         a bound every alternative is eager (like the unreduced explorer)
         and the cost-aware sleep sets do the pruning. *)
      let untried =
        match d.reduction with
        | Some p when not p.bounded -> []
        | Some _ | None -> untried_of cand (nall - 1) ~chosen sleep []
      in
      let decision =
        Thread
          {
            chosen;
            untried;
            explored = [];
            sleep;
            candidates;
            fp = Footprint.pure;
            scope = Unscoped;
            facts = unvisited;
            leaves = [];
            frozen = false;
          }
      in
      push d i decision;
      (match d.reduction with
       | Some _ -> por_after_choice decision ~sleep ~pending ~flusher chosen
       | None -> ());
      take i chosen;
      chosen
    end
  in
  let decide_value ~arity =
    let i = d.len in
    if i < d.prefix then
      match d.trace.(i) with
      | Value v ->
        if v.arity <> arity then invalid_arg "Explore: replay mismatch (choice arity)";
        d.len <- i + 1;
        v.chosen
      | Thread _ -> invalid_arg "Explore: replay mismatch (expected value decision)"
    else begin
      push d i (Value { chosen = 0; untried = List.init (arity - 1) (fun i -> i + 1); arity });
      d.len <- i + 1;
      0
    end
  in
  (* Record the node's facts and the scope its step earns. Without a bound
     that is [Always]. Under a bound, a costly choice fails condition (a) of
     the cost argument at {!por} and a step that ends involuntarily fails
     (b): either only sleeps across flushes, and one that failed (a) and
     leaves its thread yielded does not sleep at all. A step's end can
     depend on a value choice made inside it, which a replay may have
     flipped, so the scope is settled again on every run of the step. *)
  let settle ~facts ~voluntary ~yielded =
    if d.current >= 0 then
      match d.trace.(d.current) with
      | Thread t -> (
        t.facts <- facts;
        match d.reduction with
        | Some p ->
          t.scope <-
            (if not p.bounded then Always
             else if facts land preempted_bit = 0 then
               if voluntary then Always else Across_flushes
             else if yielded then Unscoped
             else Across_flushes)
        | None -> ())
      | Value _ -> ()
  in
  { start; replay; decide_thread; decide_value; settle }

(* Find the deepest decision below [upto] with an untried alternative,
   mutate it to take that alternative, and make the trace up to it the next
   replay prefix; [false] when none is left. Alternatives that entered the
   sleep set after they were requested are dropped — their subtrees were
   covered by a sibling in the meantime. *)
let next_prefix d ~upto =
  let rec awake sleep = function x :: xs when asleep x sleep -> awake sleep xs | l -> l in
  let rec go i =
    if i < 0 then false
    else
      match d.trace.(i) with
      | Thread t -> (
        match awake t.sleep t.untried with
        | [] ->
          t.untried <- [];
          go (i - 1)
        | x :: xs ->
          (match t.scope with
           | Always | Across_flushes -> t.explored <- sleeper t.chosen t.scope :: t.explored
           | Unscoped -> ());
          t.scope <- Unscoped;
          t.chosen <- x;
          t.untried <- xs;
          d.prefix <- i + 1;
          true)
      | Value v -> (
        match v.untried with
        | [] -> go (i - 1)
        | x :: xs ->
          v.chosen <- x;
          v.untried <- xs;
          d.prefix <- i + 1;
          true)
  in
  go (upto - 1)

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

(* [s] with one more execution, whose decision trace was [depth] long: a
   reported one counts in full, one the reduction abandoned ([por_pruned])
   only with its steps, its depth and as a sleep-set skip. *)
let tally ~depth (s : stats) (o : exec_outcome) =
  let max_depth = max s.max_depth depth in
  if o.por_pruned then
    {
      s with
      total_steps = s.total_steps + o.steps;
      max_depth;
      sleep_set_skips = s.sleep_set_skips + 1;
    }
  else
    let deadlock, diverged, stuck =
      match o.exec_end with
      | Deadlock _ -> 1, 0, 0
      | Diverged -> 0, 1, 0
      | Serial_stuck _ -> 0, 0, 1
      | All_finished -> 0, 0, 0
    in
    {
      s with
      executions = s.executions + 1;
      total_steps = s.total_steps + o.steps;
      max_depth;
      deadlocks = s.deadlocks + deadlock;
      divergences = s.divergences + diverged;
      serial_stucks = s.serial_stucks + stuck;
      preemptions_spent = s.preemptions_spent + o.preemptions;
      yields = s.yields + o.yields;
      choice_points = s.choice_points + o.choice_points;
      flushes = s.flushes + o.flushes;
    }

(* The DFS driver: start replaying from [prefix] (its decisions must carry
   empty [untried] lists when they are meant to stay frozen, as
   {!explore_from}'s thawed prefixes do) and enumerate the subtree below,
   backtracking only into the first [cut] decisions of each execution.
   [on_execution] sees each reported execution with its decision trace,
   before {!next_prefix} flips a decision of it; [kind] names the
   executions in the trace.

   POR runs in concurrent mode only: phase 1's serial enumeration is the
   completeness-critical synthesis of the sequential specification (§4.3),
   and every serial interleaving is a distinct history by construction, so
   there is nothing sound to reduce there. *)
let explore_dfs cfg ~kind ~cut ~prefix ~setup ~on_execution =
  let backtracks = ref 0 in
  let por =
    if cfg.por && cfg.mode = Concurrent then
      Some { bounded = Option.is_some cfg.preemption_bound; backtracks }
    else None
  in
  let d = dfs ?por prefix in
  let pruned = ref 0 in
  let run = runner cfg ~decider:(dfs_decider d) ~pruned in
  let stats = ref empty_stats in
  let stop () = stats := { !stats with complete = false } in
  let continue_ = ref true in
  while !continue_ do
    let outcome = run setup in
    let depth = d.len in
    stats := tally ~depth !stats outcome;
    if outcome.por_pruned then
      (* Sleep-set blocked: the execution was abandoned as redundant. Its
         partial trace still drives the backtracking, but it is not an
         execution of the program — no outcome is reported. *)
      trace_execution ~kind:"dfs-sleep-blocked" ~depth outcome
    else begin
      trace_execution ~kind ~depth outcome;
      match on_execution d outcome with
      | `Stop ->
        continue_ := false;
        stop ()
      | `Continue -> ()
    end;
    if !continue_ then
      if not (next_prefix d ~upto:(min cut depth)) then continue_ := false
      else
        match cfg.max_executions with
        | Some cap when !stats.executions >= cap ->
          continue_ := false;
          stop ()
        | Some _ | None -> ()
  done;
  { !stats with pruned_choices = !pruned; backtrack_points = !backtracks }

let explore_replay cfg ~prefix ~setup ~on_execution =
  explore_dfs cfg ~kind:"dfs" ~cut:max_int ~prefix ~setup ~on_execution:(fun _ o ->
      on_execution o)

let explore cfg ~setup ~on_execution () = explore_replay cfg ~prefix:[||] ~setup ~on_execution

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

(* The choices of [trace.(0 .. len - 1)]. *)
let freeze trace len =
  List.init len (fun i ->
      match trace.(i) with
      | Thread t -> Sched_choice t.chosen
      | Value v -> Value_choice { chosen = v.chosen; arity = v.arity })

(* Thawed prefixes carry no untried alternatives and are marked frozen:
   [next_prefix] can never flip a prefix decision and the reduction never
   requests siblings there, which is what confines {!explore_from} to the
   partition's subtree. *)
let thaw_prefix p =
  Array.of_list
    (List.map
       (function
         | Sched_choice chosen ->
           Thread
             {
               chosen;
               untried = [];
               explored = [];
               sleep = [];
               candidates = [];
               fp = Footprint.pure;
               scope = Unscoped;
               facts = unvisited;
               leaves = [];
               frozen = true;
             }
         | Value_choice { chosen; arity } -> Value { chosen; untried = []; arity })
       p)

let explore_from cfg ~prefix ~setup ~on_execution () =
  explore_replay cfg ~prefix:(thaw_prefix prefix) ~setup ~on_execution

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
  let prefixes = ref [] in
  let on_execution d outcome =
    (* Freeze before [next_prefix] mutates the shared decision records. *)
    prefixes := freeze d.trace (min depth d.len) :: !prefixes;
    on_execution outcome
  in
  let warmup =
    explore_dfs { cfg with por = false } ~kind:"split-warmup" ~cut:depth ~prefix:[||] ~setup
      ~on_execution
  in
  { prefixes = List.rev !prefixes; warmup }

let split cfg ~depth ~setup ~on_execution =
  if depth < 0 then invalid_arg "Explore.split: depth must be >= 0";
  (* Depth 0 is the trivial frontier: the empty prefix pins nothing, so its
     one partition is the whole tree and no warm-up execution is needed. *)
  if depth = 0 then { prefixes = [ [] ]; warmup = empty_stats }
  else warm_up cfg ~depth ~setup ~on_execution

(* ------------------------------------------------------------------ *)
(* Random-walk baseline                                                *)
(* ------------------------------------------------------------------ *)

let random_walk cfg ~rng ~executions:target ~setup ~on_execution =
  let decider =
    {
      start = ignore;
      replay = (fun () -> no_replay);
      decide_thread =
        (fun cand ~nfree ~ncostly ~pending:_ ~flusher:_ ->
          cand.(Random.State.int rng (nfree + ncostly)));
      decide_value = (fun ~arity -> Random.State.int rng arity);
      settle = (fun ~facts:_ ~voluntary:_ ~yielded:_ -> ());
    }
  in
  let pruned = ref 0 in
  let run = runner cfg ~decider ~pruned in
  let stats = ref empty_stats in
  let continue_ = ref true in
  while !continue_ && !stats.executions < target do
    let outcome = run setup in
    stats := tally ~depth:0 !stats outcome;
    trace_execution ~kind:"random-walk" ~depth:0 outcome;
    match on_execution outcome with
    | `Stop -> continue_ := false
    | `Continue -> ()
  done;
  { !stats with pruned_choices = !pruned; complete = false }
