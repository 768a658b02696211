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
   wakes at the first thread step. *)
type scope = Always | Across_flushes

(* Decision records are shared between the replay prefix and the trace being
   built, so mutating them during backtracking persists into the next
   execution. A [Thread] decision is a full choice point: besides the chosen
   thread and its pending alternatives it carries what the step loop derived
   at the node on its first visit ([facts]), the footprint of the executed
   step and the sleep-set bookkeeping the partial-order reduction maintains
   across siblings ([explored], [sleep], [leaves]). Outside POR mode the
   reduction's fields stay empty. *)
type decision =
  | Thread of {
      mutable chosen : int;
      mutable untried : int list;
      mutable explored : (int * scope) list;
          (** siblings already fully explored, with the scope each sleeps with *)
      mutable sleep : (int * scope) list;  (** sleep set on entry *)
      mutable candidates : int list;
          (** all schedulable choices here; kept only for the unbounded
              reduction's conflict scan *)
      mutable fp : Footprint.t;  (** footprint of the executed step *)
      mutable scope : scope option;
          (** the scope with which [chosen] enters sibling sleep sets once
              flipped past, if any. [Always] under no bound; under a finite
              preemption bound [Always] only when [chosen] was a free choice
              whose step ended at a voluntary suspension, else
              [Across_flushes] unless its step left it yielded (see the
              soundness note at {!por}). *)
      mutable facts : int;
          (** what the step loop derived here for [chosen], packed by
              {!pack_facts}; [unvisited] until the node first runs *)
      mutable leaves : (int * scope) list;
          (** the sleep set [chosen]'s step leaves behind *)
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

let thread_decision chosen ~untried ~sleep ~candidates =
  Thread
    {
      chosen;
      untried;
      explored = [];
      sleep;
      candidates;
      fp = Footprint.pure;
      scope = None;
      facts = unvisited;
      leaves = [];
      frozen = false;
    }

exception Killed

(* Raised by a POR decider when every schedulable choice is in the sleep
   set: the execution's continuation only re-interleaves independent steps
   already covered by an explored sibling subtree. The engine kills the
   execution and the driver does not report it. *)
exception Sleep_blocked

(* The per-execution decision callbacks.

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

(* A suspended thread's continuation lives in its status slot. [Draining] is
   a drain obligation: the thread may not take its next step until its store
   buffers have emptied (via scheduler-chosen flushes). *)
type thread_state =
  | Ready of (unit, unit) Effect.Deep.continuation
  | Blocked of { k : (unit, unit) Effect.Deep.continuation; wake : unit -> bool }
  | Draining of (unit, unit) Effect.Deep.continuation
  | Finished

(* The first [i < len] with [a.(i) = x], or [-1]. *)
let index_of x a len =
  let rec go i = if i >= len then -1 else if a.(i) = x then i else go (i + 1) in
  go 0

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
  (* The footprint of the step thread [i] will execute when next resumed:
     the access it suspends at. Boundary steps emit call/return events
     (event order is the history, so they never commute); yield steps
     interact with the fairness state and are kept opaque. *)
  let next_fp = Array.make n Footprint.pure in
  (* The thread whose fiber runs: the handler below is shared by all. *)
  let running = ref 0 in
  let last_running = ref (-1) in
  let last_voluntary = ref true in
  let preemptions = ref 0 in
  let steps = ref 0 in
  let yields = ref 0 in
  let flushes = ref 0 in
  let choice_points = ref 0 in
  let errors = ref [] in
  let killing = ref false in
  let open Effect.Deep in
  let suspend ~voluntary ~fp k =
    status.(!running) <- Ready k;
    next_fp.(!running) <- fp;
    last_voluntary := voluntary
  in
  (* Used at RMWs, fences and operation-return markers under TSO/PSO; the
     held thread's footprint is that of the step it resumes into. *)
  let drain ~fp k =
    status.(!running) <- Draining k;
    next_fp.(!running) <- fp;
    last_voluntary := true
  in
  let buffered () = memory <> Memory_model.Sc && not (Exec_ctx.buffer_empty !running) in
  (* The effect being handled, stashed by [effc] for the handlers below,
     which are allocated once per execution rather than once per effect. *)
  let reason = ref Rt.Boundary in
  let block_wake = ref (fun () -> true) in
  let block_fp = ref Footprint.unknown in
  let arity = ref 0 in
  let on_sched =
    Some
      (fun (k : (unit, unit) continuation) ->
        if !killing then continue k ()
        else
          match !reason, cfg.mode with
          | (Rt.Access _ | Rt.Return_boundary | Rt.Fence), Serial ->
            (* no mid-operation scheduling in serial mode; an operation
               runs atomically through its return *)
            continue k ()
          | Rt.Access a, Concurrent ->
            let fp = Footprint.access ~loc:a.loc ~kind:a.kind in
            if a.kind = Exec_ctx.Rmw && buffered () then drain ~fp k
            else suspend ~voluntary:false ~fp k
          | Rt.Return_boundary, Concurrent ->
            (* Drain-at-return: an operation's return event becomes visible
               only once its stores are globally visible, so histories stay
               complete and the final observer reads fully flushed memory. *)
            if buffered () then drain ~fp:Footprint.event k
            else suspend ~voluntary:true ~fp:Footprint.event k
          | Rt.Fence, Concurrent ->
            if buffered () then drain ~fp:Footprint.pure k
            else suspend ~voluntary:true ~fp:Footprint.pure k
          | Rt.Boundary, (Concurrent | Serial) -> suspend ~voluntary:true ~fp:Footprint.event k)
  in
  let on_block =
    Some
      (fun (k : (unit, unit) continuation) ->
        if !killing then discontinue k Killed
        else begin
          status.(!running) <- Blocked { k; wake = !block_wake };
          next_fp.(!running) <- !block_fp;
          last_voluntary := true
        end)
  in
  let on_yield =
    Some
      (fun (k : (unit, unit) continuation) ->
        if !killing then continue k ()
        else
          match cfg.mode with
          | Serial ->
            (* no mid-operation scheduling in serial mode; spin loops that
               genuinely wait on another thread hit the step budget and
               classify as stuck *)
            continue k ()
          | Concurrent ->
            yielded.(!running) <- true;
            incr yields;
            suspend ~voluntary:true ~fp:Footprint.unknown k)
  in
  let on_choose =
    Some
      (fun (k : (int, unit) continuation) ->
        if !killing then continue k 0 else continue k (decider.decide_value ~arity:!arity))
  in
  let handler =
    {
      retc =
        (fun () ->
          status.(!running) <- Finished;
          last_voluntary := true);
      exnc =
        (fun e ->
          let i = !running in
          status.(i) <- Finished;
          last_voluntary := true;
          match e with Killed -> () | e -> errors := (i, e) :: !errors);
      effc =
        (fun (type b) (eff : b Effect.t) : ((b, unit) continuation -> unit) option ->
          match eff with
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
    killing := true;
    for i = 0 to n - 1 do
      match status.(i) with
      | Ready k | Draining k | Blocked { k; _ } ->
        (* cleanup code run by the kill, such as [Mutex_.with_lock]'s
           release, must see its own thread *)
        running := i;
        Exec_ctx.set_current_tid i;
        discontinue k Killed
      | Finished -> ()
    done
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
  let schedulable i =
    match status.(i) with
    | Ready _ -> true
    | Blocked { wake; _ } -> wake_holds i wake
    | Draining _ -> Exec_ctx.buffer_empty i
    | Finished -> false
  in
  let blocked_threads () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match status.(i) with
      | Blocked _ | Draining _ -> acc := i :: !acc
      | Ready _ | Finished -> ()
    done;
    !acc
  in
  let pending t =
    if t >= n then
      (* A flusher's next step commits its unit's oldest store: a write to
         that store's location, which is what makes flush choices ordinary
         conflicting choices for the reduction. *)
      let loc = Exec_ctx.flush_unit_loc (t - n) in
      if loc >= 0 then Footprint.access ~loc ~kind:Exec_ctx.Write else Footprint.pure
    else
      match status.(t) with
      | Ready _ | Blocked _ | Draining _ -> next_fp.(t)
      | Finished -> Footprint.pure
  in
  let flusher t = t >= n in
  (* The full path's schedulable ids, in two buffers reused across the
     execution's steps ([enabled] is filtered in place, [cand] holds the
     free/costly partition): real threads [0, n) ascending, then one virtual
     flusher [n + u] per non-empty flush unit [u], ascending. Flush ids flow
     through decisions, sleep sets and prefix serialization exactly like
     thread ids; unit indices are registration-ordered, hence deterministic
     across replays. *)
  let enabled = ref (Array.make (n + 4) 0) in
  let cand = ref (Array.make (n + 4) 0) in
  let fill_enabled () =
    let units = if memory = Memory_model.Sc then 0 else Exec_ctx.flush_unit_count () in
    if n + units > Array.length !enabled then begin
      enabled := Array.make (2 * (n + units)) 0;
      cand := Array.make (2 * (n + units)) 0
    end;
    let e = !enabled in
    let m = ref 0 in
    for i = 0 to n - 1 do
      if schedulable i then begin
        e.(!m) <- i;
        incr m
      end
    done;
    for u = 0 to units - 1 do
      if Exec_ctx.flush_unit_loc u >= 0 then begin
        e.(!m) <- n + u;
        incr m
      end
    done;
    !m
  in
  let unschedulable c =
    Fmt.invalid_arg "Explore: replayed decision chose unschedulable %s %d"
      (if c >= n then "flusher" else "thread")
      c
  in
  (* Start fusion: run each thread to its first suspension point, in thread
     order, before any scheduling decision. Sound because every modeled
     shared access performs its scheduling effect first — the prefix before
     a thread's first suspension cannot touch modeled shared state, so its
     position in the interleaving is irrelevant. (Value choices encountered
     in the prefix remain decision points.) *)
  let prerun_blocked = ref (-1) in
  for i = 0 to n - 1 do
    running := i;
    Exec_ctx.set_current_tid i;
    match_with threads.(i) () handler;
    if cfg.mode = Serial && !prerun_blocked < 0 then
      match status.(i) with
      | Blocked { wake; _ } when not (wake ()) -> prerun_blocked := i
      | Ready _ | Blocked _ | Draining _ | Finished -> ()
  done;
  let por_blocked = ref false in
  let rec loop () =
    if !prerun_blocked >= 0 then begin
      kill_all ();
      Serial_stuck !prerun_blocked
    end
    else if !steps >= cfg.max_steps then begin
      kill_all ();
      Diverged
    end
    else
      match decider.replay () with
      | Thread t ->
        (* The short case: a replayed node re-applies the facts its first
           visit derived. The check that [chosen] can run is O(1) (one wake
           predicate at most), so a program that is not deterministic given
           its decisions still fails loudly. *)
        let c = t.chosen and facts = t.facts in
        if facts land choice_bit <> 0 then incr choice_points;
        pruned := !pruned + (facts lsr 2);
        if not (if c >= n then Exec_ctx.flush_unit_loc (c - n) >= 0 else schedulable c) then
          unschedulable c;
        step c facts
      | Value _ -> full_path ()
  and full_path () =
    let ne = fill_enabled () in
    if ne = 0 then begin
      if Array.for_all (function Finished -> true | Ready _ | Blocked _ | Draining _ -> false)
           status
      then All_finished
      else begin
        let blocked = blocked_threads () in
        kill_all ();
        Deadlock blocked
      end
    end
    else begin
      let e = !enabled and cand = !cand in
      (* Fairness: don't reschedule a yielded thread while a non-yielded
         thread is enabled. Flushers (ids >= n) never yield. *)
      let nc = ref 0 in
      for j = 0 to ne - 1 do
        let c = e.(j) in
        if c >= n || not yielded.(c) then begin
          e.(!nc) <- c;
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
      let t = !last_running in
      if (not !last_voluntary) && t >= 0 && index_of t e nc >= 0 then begin
        nfree := 0;
        for j = 0 to nc - 1 do
          let c = e.(j) in
          if c = t || c >= n then begin
            cand.(!nfree) <- c;
            incr nfree
          end
        done;
        for j = 0 to nc - 1 do
          let c = e.(j) in
          if c <> t && c < n then begin
            cand.(!nfree + !ncostly) <- c;
            incr ncostly
          end
        done
      end
      else Array.blit e 0 cand 0 nc;
      let pruned_here =
        match cfg.preemption_bound with
        | Some bound when !preemptions >= bound ->
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
      if choice then incr choice_points;
      match decider.decide_thread cand ~nfree ~ncostly ~pending ~flusher with
      | exception Sleep_blocked ->
        (* The reduction proved the continuation redundant; abandon the
           execution. The driver counts it and drops its history. *)
        por_blocked := true;
        kill_all ();
        All_finished
      | chosen ->
        let at = index_of chosen cand (nfree + ncostly) in
        if at < 0 then unschedulable chosen;
        step chosen (pack_facts ~choice ~preempted:(at >= nfree) ~pruned:pruned_here)
    end
  and step c facts =
    if c >= n then begin
      (* A flush step commits the unit's oldest buffered store. It is a step
         for fairness (spinning threads get to re-run after it) but is
         transparent to preemption accounting: [last_running] and
         [last_voluntary] are left untouched. Its end is voluntary for the
         reduction's cost argument: a flush can move to any position
         without changing the cost of any context switch. *)
      for j = 0 to n - 1 do
        yielded.(j) <- false
      done;
      incr steps;
      incr flushes;
      Exec_ctx.flush_one (c - n);
      decider.settle ~facts ~voluntary:true ~yielded:false;
      loop ()
    end
    else begin
      if facts land preempted_bit <> 0 then incr preemptions;
      for j = 0 to n - 1 do
        if j <> c then yielded.(j) <- false
      done;
      incr steps;
      running := c;
      Exec_ctx.set_current_tid c;
      (match status.(c) with
       | Ready k | Draining k | Blocked { k; _ } -> continue k ()
       | Finished -> assert false);
      decider.settle ~facts ~voluntary:!last_voluntary ~yielded:yielded.(c);
      if
        cfg.mode = Serial
        && match status.(c) with Blocked { wake; _ } -> not (wake ()) | _ -> false
      then begin
        kill_all ();
        Serial_stuck c
      end
      else begin
        last_running := c;
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

(* Per-execution reduction state. [sleep] is the current sleep set: threads
   whose pending step commutes with everything executed since an explored
   sibling covered them. [backtracks] survives the execution (it accumulates
   into the run statistics). The substrate of the last-conflicting-access
   analysis is the execution's own decision trace: each [Thread] decision
   on it carries the chosen thread and the footprint of the step it ran.

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
  mutable sleep : (int * scope) list;
  backtracks : int ref;
}

let asleep q sleep = List.mem_assoc q sleep

let por_fresh ~bounded ~backtracks = { bounded; sleep = []; backtracks }

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

(* The dynamic backtrack-set computation, run at every scheduling point the
   full path decides, for every schedulable candidate [q]: find the most
   recent executed step of a different thread on [trace] (this execution's
   decisions so far, newest first) whose footprint conflicts with [q]'s
   pending step, and request [q] (or, if [q] was not schedulable there,
   every choice that was) at that point. Only used without a preemption
   bound — the bounded mode branches eagerly and reduces with sleep sets
   alone (see {!por}). *)
let por_analyze por ~trace ~candidates ~pending =
  List.iter
    (fun q ->
      let fq = pending q in
      let rec scan = function
        | [] -> ()
        | Value _ :: rest -> scan rest
        | (Thread t as d) :: rest ->
          if t.chosen <> q && Footprint.conflicts t.fp fq then begin
            if not t.frozen then
              if List.mem q t.candidates then por_request por d q
              else List.iter (fun c -> por_request por d c) t.candidates
          end
          else scan rest
      in
      scan trace)
    candidates

(* Commit the choice of [c] at decision [d]: record the executed step's
   footprint and propagate the sleep set — explored siblings join it, every
   member whose pending step conflicts with the chosen step wakes up, and a
   thread step also wakes every member that only sleeps across flushes. The
   result is also what [d] leaves behind for its replays. *)
let por_after_choice por d ~pending ~flusher c =
  match d with
  | Value _ -> ()
  | Thread t ->
    let fc = pending c in
    t.fp <- fc;
    (* Nothing sleeps at most decisions; skip the filter's allocation there. *)
    (match t.explored @ por.sleep with
     | [] -> ()
     | seed ->
       por.sleep <-
         List.sort_uniq compare
           (List.filter
              (fun (t, scope) ->
                t <> c
                && (scope = Always || flusher c)
                && not (Footprint.conflicts (pending t) fc))
              seed));
    t.leaves <- por.sleep

(* ------------------------------------------------------------------ *)
(* Depth-first systematic exploration with backtracking                *)
(* ------------------------------------------------------------------ *)

(* [cand.(0) .. cand.(len - 1)] as a list. *)
let ids cand len =
  let rec go i acc = if i < 0 then acc else go (i - 1) (cand.(i) :: acc) in
  go (len - 1) []

(* Builds the decider used for one DFS execution: consume the replay prefix,
   then make fresh decisions (preferring to continue the last-chosen id)
   while recording untried alternatives. With [?por] the decider runs the
   reduction: without a preemption bound, fresh decisions start with lazy
   backtrack sets instead of all alternatives; under a finite bound they
   branch eagerly and only the cost-aware sleep sets prune (see {!por}).
   Either way sleeping candidates are never chosen, and a point whose every
   candidate sleeps raises {!Sleep_blocked}. *)
let dfs_decider ?por ~replay ~trace () =
  let replay_left = ref replay in
  let last_chosen = ref (-1) in
  (* The [Thread] decision whose step runs now, for [settle]. *)
  let current = ref no_replay in
  let record d = trace := d :: !trace in
  let take d c =
    record d;
    current := d;
    last_chosen := c
  in
  let replay () =
    match !replay_left with
    | (Thread t as d) :: (_ :: _ as rest) when t.facts <> unvisited ->
      replay_left := rest;
      (match por with Some p -> p.sleep <- t.leaves | None -> ());
      take d t.chosen;
      d
    | _ -> no_replay
  in
  let decide_thread cand ~nfree ~ncostly ~pending ~flusher =
    let nall = nfree + ncostly in
    match !replay_left with
    | (Thread t as d) :: rest ->
      (* The decision {!next_prefix} flipped, or a frontier prefix's on its
         partition's first run. Its node's entry sleep set and candidates
         are its first visit's and its conflict scan would request nothing
         new (see {!por}); only the step of its new [chosen] is new. *)
      replay_left := rest;
      (match por with Some p -> por_after_choice p d ~pending ~flusher t.chosen | None -> ());
      take d t.chosen;
      t.chosen
    | Value _ :: _ -> invalid_arg "Explore: replay mismatch (expected thread decision)"
    | [] ->
      let sleep, candidates =
        match por with
        | None -> [], []
        | Some p ->
          let candidates = if p.bounded then [] else ids cand nall in
          if not p.bounded then por_analyze p ~trace:!trace ~candidates ~pending;
          p.sleep, candidates
      in
      let awake c = not (asleep c sleep) in
      let chosen =
        let t = !last_chosen in
        if t >= 0 && index_of t cand nall >= 0 && awake t then t
        else begin
          let m = ref (-1) in
          for i = 0 to nall - 1 do
            let c = cand.(i) in
            if awake c && (!m < 0 || c < !m) then m := c
          done;
          !m
        end
      in
      if chosen < 0 then raise Sleep_blocked;
      (* Lazy backtracking is only sound without a preemption bound; under
         a bound every alternative is eager (like the unreduced explorer)
         and the cost-aware sleep sets do the pruning. *)
      let untried =
        match por with
        | Some p when not p.bounded -> []
        | Some _ | None -> List.filter (fun c -> c <> chosen && awake c) (ids cand nall)
      in
      let d = thread_decision chosen ~untried ~sleep ~candidates in
      (match por with Some p -> por_after_choice p d ~pending ~flusher chosen | None -> ());
      take d chosen;
      chosen
  in
  let decide_value ~arity =
    match !replay_left with
    | (Value v as d) :: rest ->
      replay_left := rest;
      if v.arity <> arity then invalid_arg "Explore: replay mismatch (choice arity)";
      record d;
      v.chosen
    | Thread _ :: _ -> invalid_arg "Explore: replay mismatch (expected value decision)"
    | [] ->
      let d = Value { chosen = 0; untried = List.init (arity - 1) (fun i -> i + 1); arity } in
      record d;
      0
  in
  (* Record the node's facts and the scope its step earns. Without a bound
     that is [Always]. Under a bound, a costly choice fails condition (a) of
     the cost argument at {!por} and a step that ends involuntarily fails
     (b): either only sleeps across flushes, and one that failed (a) and
     leaves its thread yielded does not sleep at all. A step's end can
     depend on a value choice made inside it, which a replay may have
     flipped, so the scope is settled again on every run of the step. *)
  let settle ~facts ~voluntary ~yielded =
    match !current, por with
    | Thread t, Some p ->
      t.facts <- facts;
      t.scope <-
        (if not p.bounded then Some Always
         else if facts land preempted_bit = 0 then
           if voluntary then Some Always else Some Across_flushes
         else if yielded then None
         else Some Across_flushes)
    | Thread t, None -> t.facts <- facts
    | Value _, _ -> ()
  in
  { replay; decide_thread; decide_value; settle }

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

(* The general DFS driver: start replaying from [replay0] (its decisions
   must carry empty [untried] lists when they are meant to stay frozen, as
   {!explore_from}'s thawed prefixes do) and enumerate the subtree below.

   POR runs in concurrent mode only: phase 1's serial enumeration is the
   completeness-critical synthesis of the sequential specification (§4.3),
   and every serial interleaving is a distinct history by construction, so
   there is nothing sound to reduce there. *)
let explore_replay cfg ~replay0 ~setup ~on_execution () =
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
  let sleep_blocked = ref 0 in
  let flushes = ref 0 in
  let backtracks = ref 0 in
  let complete = ref true in
  let replay = ref replay0 in
  let continue_ = ref true in
  while !continue_ do
    let trace = ref [] in
    let por =
      if por_on then
        Some (por_fresh ~bounded:(Option.is_some cfg.preemption_bound) ~backtracks)
      else None
    in
    let decider = dfs_decider ?por ~replay:!replay ~trace () in
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
      match on_execution outcome with
      | `Stop ->
        continue_ := false;
        complete := false
      | `Continue -> ()
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
    sleep_set_skips = !sleep_blocked;
    backtrack_points = !backtracks;
    flushes = !flushes;
    complete = !complete;
  }

let explore cfg ~setup ~on_execution () = explore_replay cfg ~replay0:[] ~setup ~on_execution ()

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
            fp = Footprint.pure;
            scope = None;
            facts = unvisited;
            leaves = [];
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

let explore_from cfg ~prefix ~setup ~on_execution () =
  explore_replay cfg ~replay0:(thaw_prefix prefix) ~setup ~on_execution ()

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
    let decider = dfs_decider ~replay:!replay ~trace () in
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
        replay = (fun () -> no_replay);
        decide_thread =
          (fun cand ~nfree ~ncostly ~pending:_ ~flusher:_ ->
            cand.(Random.State.int rng (nfree + ncostly)));
        decide_value = (fun ~arity -> Random.State.int rng arity);
        settle = (fun ~facts:_ ~voluntary:_ ~yielded:_ -> ());
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
    sleep_set_skips = 0;
    backtrack_points = 0;
    flushes = !flushes;
    complete = false;
  }
