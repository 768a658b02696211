open Helpers
module Rt = Lineup_runtime.Rt
module Var = Lineup_runtime.Shared_var
module Mutex_ = Lineup_runtime.Mutex_
module Explore = Lineup_scheduler.Explore

let explore_all config ~setup ~on_execution = Explore.explore config ~setup ~on_execution ()


let unbounded = { Explore.default_config with preemption_bound = None }

let count_executions ?(config = unbounded) setup =
  let n = ref 0 in
  let stats =
    explore_all config ~setup ~on_execution:(fun _ ->
        incr n;
        `Continue)
  in
  !n, stats

(* k threads, each performing n accesses to a shared variable. *)
let accesses_program ~threads ~accesses () =
  let v = Var.make 0 in
  Array.init threads (fun _ () ->
      for _ = 1 to accesses do
        ignore (Var.read v)
      done)

let multinomial ks =
  let fact n = List.fold_left ( * ) 1 (List.init n (fun i -> i + 1)) in
  fact (List.fold_left ( + ) 0 ks) / List.fold_left (fun acc k -> acc * fact k) 1 ks

(* Each execution's end kind, step count and error count, in order. *)
let execution_ends config setup =
  let ends = ref [] in
  let _ =
    explore_all config ~setup ~on_execution:(fun o ->
        ends := (o.Explore.exec_end, o.Explore.steps, List.length o.Explore.errors) :: !ends;
        `Continue)
  in
  List.rev !ends

let exec_end_t =
  Alcotest.testable
    (fun ppf -> function
      | Explore.All_finished -> Fmt.string ppf "finished"
      | Explore.Deadlock ts -> Fmt.pf ppf "deadlock %a" Fmt.(Dump.list int) ts
      | Explore.Serial_stuck t -> Fmt.pf ppf "serial-stuck %d" t
      | Explore.Diverged -> Fmt.string ppf "diverged")
    ( = )

(* The kill and replay contract. An execution that ends early (deadlock,
   divergence) discontinues every suspended thread with the explorer's
   private [Killed]; a thread may catch it and take further steps, as
   [Mutex_.with_lock]'s release-on-exception does, and the execution must
   still end as it would have, with no error. A replayed decision that no
   longer fits the program (the program is not deterministic given its
   decisions) must raise [Invalid_argument], never an assertion. *)
let kill_and_replay_contract =
  [
    test "kill: a blocked thread that catches Killed and steps again ends the deadlock cleanly"
      (fun () ->
        (* the shape of [Mutex_.with_lock]'s cleanup: one more scheduling
           step on the way out, then the exception is re-raised *)
        let ends =
          execution_ends unbounded (fun () ->
              let v = Var.make 0 in
              [|
                (fun () ->
                  try Rt.block ~wake:(fun () -> false) "never"
                  with e ->
                    Var.write v 1;
                    raise e);
                (fun () -> ignore (Var.read v));
              |])
        in
        Alcotest.(check (list (triple exec_end_t int int)))
          "ends" [ Explore.Deadlock [ 0 ], 1, 0 ] ends);
    test "kill: cleanup run by the kill sees its own thread id" (fun () ->
        (* T0's [with_lock] releases [m] on the way out of the kill; T1 ran
           last, and the release must not be charged to it *)
        let ends =
          execution_ends unbounded (fun () ->
              let m = Mutex_.create ~name:"m" () in
              let v = Var.make 0 in
              [|
                (fun () -> Mutex_.with_lock m (fun () -> Rt.block ~wake:(fun () -> false) "never"));
                (fun () -> ignore (Var.read v));
              |])
        in
        match ends with
        | (e, _, errors) :: _ ->
          Alcotest.check exec_end_t "first execution" (Explore.Deadlock [ 0 ]) e;
          Alcotest.(check int) "no thread error" 0 errors
        | [] -> Alcotest.fail "no execution");
    test "kill: a diverging thread that catches Killed and steps again ends Diverged" (fun () ->
        let ends =
          execution_ends
            { unbounded with max_steps = 20 }
            (fun () ->
              let v = Var.make 0 in
              [|
                (fun () ->
                  try
                    while true do
                      ignore (Var.read v);
                      Rt.yield ()
                    done
                  with _ -> Var.write v 1);
              |])
        in
        Alcotest.(check (list (triple exec_end_t int int)))
          "ends" [ Explore.Diverged, 20, 0 ] ends);
  ]
  @ List.map
      (fun (what, body) ->
        test ("kill: a thread that swallows Killed and " ^ what ^ " is dropped") (fun () ->
            let path = Filename.temp_file "lineup" ".ndjson" in
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                let ends =
                  Lineup_observe.Trace.with_trace ~path:(Some path) (fun () ->
                      within 20. (fun () ->
                          execution_ends unbounded (fun () ->
                              let v = Var.make 0 in
                              [| body v; (fun () -> ignore (Var.read v)) |])))
                in
                Alcotest.(check (list (triple exec_end_t int int)))
                  "ends" [ Explore.Deadlock [ 0 ], 1, 0 ] ends;
                Alcotest.(check bool) "the trace names the dropped thread" true
                  (contains ~sub:{|"ev":"explore.kill_drop","tid":0}|} (read path)))))
      (* hostile adapter bodies: each catches every exception *)
      [
        ( "blocks again",
          fun _ () ->
            while true do
              try Rt.block ~wake:(fun () -> false) "w" with _ -> ()
            done );
        ( "yields forever",
          fun _ () ->
            try Rt.block ~wake:(fun () -> false) "w"
            with _ ->
              while true do
                Rt.yield ()
              done );
        ( "reads forever",
          fun v () ->
            try Rt.block ~wake:(fun () -> false) "w"
            with _ ->
              while true do
                ignore (Var.read v)
              done );
      ]
  @ [
    test "replay: a setup that is not deterministic given its decisions raises" (fun () ->
        let runs = ref 0 in
        let setup () =
          incr runs;
          let first = !runs = 1 in
          let v = Var.make 0 in
          [|
            (fun () ->
              if first then begin
                ignore (Var.read v);
                ignore (Var.read v)
              end);
            (fun () -> ignore (Var.read v));
          |]
        in
        Alcotest.check_raises "replay mismatch"
          (Invalid_argument "Explore: replayed decision chose unschedulable thread 0") (fun () ->
            ignore (explore_all unbounded ~setup ~on_execution:(fun _ -> `Continue))));
  ]

let suite =
  [
    test "exhaustive interleavings: 2 threads x 2 accesses = C(4,2)" (fun () ->
        let n, stats = count_executions (accesses_program ~threads:2 ~accesses:2) in
        Alcotest.(check int) "executions" (multinomial [ 2; 2 ]) n;
        Alcotest.(check bool) "complete" true stats.Explore.complete);
    test "exhaustive interleavings: 3 threads x 1 access = 3!" (fun () ->
        let n, _ = count_executions (accesses_program ~threads:3 ~accesses:1) in
        Alcotest.(check int) "executions" 6 n);
    test "exhaustive interleavings: 2 threads x 3 accesses = C(6,3)" (fun () ->
        let n, _ = count_executions (accesses_program ~threads:2 ~accesses:3) in
        Alcotest.(check int) "executions" (multinomial [ 3; 3 ]) n);
    test "single thread explores once" (fun () ->
        let n, _ = count_executions (accesses_program ~threads:1 ~accesses:5) in
        Alcotest.(check int) "executions" 1 n);
    test "preemption bound 0 forbids mid-run switches" (fun () ->
        (* with PB=0, a thread runs its accesses to completion: one
           execution per thread order... but switches at voluntary points
           only; threads never block so each runs to completion: orders of
           threads = 2 ... however switch can only happen at thread end, so
           executions = 1 starting thread choice? The first decision can
           pick either thread (no previous running thread): 2 executions. *)
        let n, _ =
          count_executions
            ~config:{ Explore.default_config with preemption_bound = Some 0 }
            (accesses_program ~threads:2 ~accesses:3)
        in
        Alcotest.(check int) "executions" 2 n);
    test "preemption bound 1 allows one switch" (fun () ->
        let n0, _ =
          count_executions
            ~config:{ Explore.default_config with preemption_bound = Some 0 }
            (accesses_program ~threads:2 ~accesses:2)
        in
        let n1, _ =
          count_executions
            ~config:{ Explore.default_config with preemption_bound = Some 1 }
            (accesses_program ~threads:2 ~accesses:2)
        in
        let nu, _ = count_executions (accesses_program ~threads:2 ~accesses:2) in
        Alcotest.(check bool) "monotone" true (n0 < n1 && n1 < nu));
    test "preemption bounding reports pruned choices" (fun () ->
        let _, stats =
          count_executions
            ~config:{ Explore.default_config with preemption_bound = Some 0 }
            (accesses_program ~threads:2 ~accesses:2)
        in
        Alcotest.(check bool) "pruned" true (stats.Explore.pruned_choices > 0));
    test "deterministic replay: outcomes stable across runs" (fun () ->
        let run () =
          let ends = ref [] in
          let _ =
            explore_all unbounded
              ~setup:(fun () ->
                let v = Var.make 0 in
                [|
                  (fun () -> Var.write v 1);
                  (fun () -> ignore (Var.read v));
                |])
              ~on_execution:(fun o ->
                ends := o.Explore.steps :: !ends;
                `Continue)
          in
          !ends
        in
        Alcotest.(check (list int)) "same step sequence" (run ()) (run ()));
    test "deadlock detection: classic lock-order inversion" (fun () ->
        let deadlocks = ref 0 in
        let _ =
          explore_all unbounded
            ~setup:(fun () ->
              let m1 = Mutex_.create ~name:"m1" () in
              let m2 = Mutex_.create ~name:"m2" () in
              [|
                (fun () ->
                  Mutex_.acquire m1;
                  Mutex_.acquire m2;
                  Mutex_.release m2;
                  Mutex_.release m1);
                (fun () ->
                  Mutex_.acquire m2;
                  Mutex_.acquire m1;
                  Mutex_.release m1;
                  Mutex_.release m2);
              |])
            ~on_execution:(fun o ->
              (match o.Explore.exec_end with
               | Explore.Deadlock [ 0; 1 ] -> incr deadlocks
               | _ -> ());
              `Continue)
        in
        Alcotest.(check bool) "deadlock found" true (!deadlocks > 0));
    test "no false deadlocks with consistent lock order" (fun () ->
        let deadlocks = ref 0 in
        let _ =
          explore_all unbounded
            ~setup:(fun () ->
              let m1 = Mutex_.create () in
              let m2 = Mutex_.create () in
              let body () =
                Mutex_.acquire m1;
                Mutex_.acquire m2;
                Mutex_.release m2;
                Mutex_.release m1
              in
              [| body; body |])
            ~on_execution:(fun o ->
              (match o.Explore.exec_end with
               | Explore.Deadlock _ -> incr deadlocks
               | _ -> ());
              `Continue)
        in
        Alcotest.(check int) "none" 0 !deadlocks);
    test "choose explores both branches" (fun () ->
        let seen = Hashtbl.create 4 in
        let _ =
          explore_all unbounded
            ~setup:(fun () ->
              let v = Var.make (-1) in
              [| (fun () -> Var.write v (Rt.choose 2)) |])
            ~on_execution:(fun _ -> `Continue)
        in
        ignore seen;
        let n, _ =
          count_executions (fun () -> [| (fun () -> ignore (Rt.choose 3)) |])
        in
        Alcotest.(check int) "three branches" 3 n);
    test "nested choices multiply" (fun () ->
        let n, _ =
          count_executions (fun () ->
              [| (fun () -> ignore (Rt.choose 2); ignore (Rt.choose 2)) |])
        in
        Alcotest.(check int) "four" 4 n);
    test "serial mode: accesses are not scheduling points" (fun () ->
        let n, _ =
          count_executions ~config:Explore.serial_config
            (accesses_program ~threads:2 ~accesses:5)
        in
        (* no operation boundaries in this program, so each thread runs
           atomically during start fusion: a single execution covers the
           space *)
        Alcotest.(check int) "one execution" 1 n);
    test "serial mode: boundaries are scheduling points" (fun () ->
        let program () =
          let v = Var.make 0 in
          Array.init 2 (fun _ () ->
              for _ = 1 to 2 do
                Rt.op_boundary ();
                ignore (Var.read v)
              done)
        in
        let n, _ = count_executions ~config:Explore.serial_config program in
        Alcotest.(check int) "multinomial orders" (multinomial [ 2; 2 ]) n);
    test "serial mode stops at a blocked thread" (fun () ->
        let stucks = ref 0 in
        let _ =
          explore_all Explore.serial_config
            ~setup:(fun () ->
              let flag = Var.make false in
              [|
                (fun () ->
                  Rt.op_boundary ();
                  Rt.block ~wake:(fun () -> Var.peek flag) "flag");
                (fun () ->
                  Rt.op_boundary ();
                  Var.write flag true);
              |])
            ~on_execution:(fun o ->
              (match o.Explore.exec_end with
               | Explore.Serial_stuck 0 -> incr stucks
               | _ -> ());
              `Continue)
        in
        Alcotest.(check bool) "serial stuck branch observed" true (!stucks > 0));
    test "fairness: spin loop against a finite writer terminates" (fun () ->
        let diverged = ref 0 in
        let stats =
          explore_all
            { unbounded with max_steps = 5_000 }
            ~setup:(fun () ->
              let flag = Var.make ~volatile:true false in
              [|
                (fun () ->
                  (* spin until the flag is set, yielding as lock-free code
                     does *)
                  while not (Var.read flag) do
                    Rt.yield ()
                  done);
                (fun () -> Var.write flag true);
              |])
            ~on_execution:(fun o ->
              (match o.Explore.exec_end with
               | Explore.Diverged -> incr diverged
               | _ -> ());
              `Continue)
        in
        Alcotest.(check int) "no divergence" 0 !diverged;
        Alcotest.(check bool) "explored" true (stats.Explore.executions > 0));
    test "divergence backstop trips on a genuine livelock" (fun () ->
        let diverged = ref 0 in
        let _ =
          explore_all
            { unbounded with max_steps = 200 }
            ~setup:(fun () ->
              let flag = Var.make false in
              [|
                (fun () ->
                  while not (Var.read flag) do
                    Rt.yield ()
                  done);
              |])
            ~on_execution:(fun o ->
              (match o.Explore.exec_end with
               | Explore.Diverged -> incr diverged
               | _ -> ());
              `Continue)
        in
        Alcotest.(check bool) "diverged" true (!diverged > 0));
    test "max_executions caps the exploration" (fun () ->
        let n, stats =
          count_executions
            ~config:{ unbounded with max_executions = Some 3 }
            (accesses_program ~threads:2 ~accesses:3)
        in
        Alcotest.(check int) "capped" 3 n;
        Alcotest.(check bool) "incomplete" true (not stats.Explore.complete));
    test "on_execution `Stop ends exploration" (fun () ->
        let n = ref 0 in
        let stats =
          explore_all unbounded
            ~setup:(accesses_program ~threads:2 ~accesses:2)
            ~on_execution:(fun _ ->
              incr n;
              `Stop)
        in
        Alcotest.(check int) "one" 1 !n;
        Alcotest.(check bool) "incomplete" true (not stats.Explore.complete));
    test "thread exceptions are reported, not thrown" (fun () ->
        let errors = ref 0 in
        let _ =
          explore_all unbounded
            ~setup:(fun () -> [| (fun () -> failwith "kaboom") |])
            ~on_execution:(fun o ->
              if o.Explore.errors <> [] then incr errors;
              `Continue)
        in
        Alcotest.(check int) "reported" 1 !errors);
    test "lost update found exhaustively" (fun () ->
        (* the classic increment race must be observable *)
        let lost = ref false in
        let result = Var.make 0 in
        let _ =
          explore_all unbounded
            ~setup:(fun () ->
              Var.poke result 0;
              let v = Var.make 0 in
              let incr_body () =
                let x = Var.read v in
                Var.write v (x + 1);
                Var.poke result (Var.peek v)
              in
              [| incr_body; incr_body |])
            ~on_execution:(fun _ ->
              if Var.peek result = 1 then lost := true;
              `Continue)
        in
        Alcotest.(check bool) "lost update observed" true !lost);
    test "blocked threads wake when the predicate turns true" (fun () ->
        let deadlocks = ref 0 in
        let _ =
          explore_all unbounded
            ~setup:(fun () ->
              let flag = Var.make false in
              [|
                (fun () -> Rt.block ~wake:(fun () -> Var.peek flag) "flag");
                (fun () -> Var.write flag true);
              |])
            ~on_execution:(fun o ->
              (match o.Explore.exec_end with
               | Explore.Deadlock _ -> incr deadlocks
               | _ -> ());
              `Continue)
        in
        Alcotest.(check int) "no deadlock" 0 !deadlocks);
    test "random walk runs the requested number of executions" (fun () ->
        let n = ref 0 in
        let stats =
          Explore.random_walk unbounded
            ~rng:(Random.State.make [| 42 |])
            ~executions:25
            ~setup:(accesses_program ~threads:2 ~accesses:2)
            ~on_execution:(fun _ ->
              incr n;
              `Continue)
        in
        Alcotest.(check int) "count" 25 !n;
        Alcotest.(check bool) "never complete" true (not stats.Explore.complete));
    test "random walk is reproducible from the seed" (fun () ->
        let run () =
          let steps = ref [] in
          let _ =
            Explore.random_walk unbounded
              ~rng:(Random.State.make [| 7 |])
              ~executions:10
              ~setup:(accesses_program ~threads:3 ~accesses:2)
              ~on_execution:(fun o ->
                steps := o.Explore.steps :: !steps;
                `Continue)
          in
          !steps
        in
        Alcotest.(check (list int)) "same" (run ()) (run ()));
  ]
  @ kill_and_replay_contract

(* Effects the scheduler does not expect. Outside any exploration an [Rt]
   effect meets no handler, also right after an exploration that returned
   or raised: no handler outlives it. The scheduler evaluates wake
   predicates itself, outside every thread: one that raises, or that
   performs an effect, must end the exploration the same way in both
   modes. *)
let unhandled_outside () =
  let v = Var.make 0 in
  List.iter
    (fun (what, f) ->
      match f () with
      | () -> Alcotest.failf "%s outside any scheduler returned" what
      | exception Effect.Unhandled _ -> ())
    [
      "a read", (fun () -> ignore (Var.read v));
      "a yield", Rt.yield;
      "a return boundary", (fun () -> Rt.sched Rt.Return_boundary);
      "a fence", Rt.fence;
    ]

let modes = [ "serial", Explore.serial_config; "concurrent", Explore.default_config ]

(* One thread that blocks on [wake], at its start (the scheduler first
   evaluates [wake] right after start fusion) or after an operation
   boundary (after the blocking step). *)
let blocked_on ~boundary wake () =
  [|
    (fun () ->
      if boundary then Rt.op_boundary ();
      Rt.block ~wake "w");
  |]

(* False at its first evaluation, the blocking thread's own; raises at the
   second, the scheduler's. *)
let raises_second () =
  let calls = ref 0 in
  fun () ->
    incr calls;
    if !calls > 1 then raise Exit;
    false

(* Explore [setup] in every mode and shape; each must raise. *)
let each_raises ~expected setup =
  List.iter
    (fun (mode, config) ->
      List.iter
        (fun boundary ->
          match explore_all config ~setup:(setup ~boundary) ~on_execution:(fun _ -> `Continue) with
          | _ -> Alcotest.failf "%s (boundary %b): the exploration returned" mode boundary
          | exception e when expected e -> ()
          | exception e ->
            Alcotest.failf "%s (boundary %b): raised %s" mode boundary (Printexc.to_string e))
        [ false; true ])
    modes

let effects_contract =
  [
    test "an Rt effect outside any scheduler is unhandled, also after a serial exploration"
      (fun () ->
        within 20. (fun () ->
            unhandled_outside ();
            ignore
              (explore_all Explore.serial_config
                 ~setup:(accesses_program ~threads:2 ~accesses:2)
                 ~on_execution:(fun _ -> `Continue));
            unhandled_outside ();
            (match
               explore_all Explore.serial_config
                 ~setup:(fun () -> blocked_on ~boundary:true (raises_second ()) ())
                 ~on_execution:(fun _ -> `Continue)
             with
             | _ -> Alcotest.fail "the exploration returned"
             | exception Exit -> ());
            unhandled_outside ()));
    test "serial: a killed thread that swallows Killed and reads forever is dropped" (fun () ->
        (* serial mode resumes a live thread's reads at once, but a killed
           thread's count against the kill's budget *)
        let ends =
          within 20. (fun () ->
              execution_ends Explore.serial_config (fun () ->
                  let v = Var.make 0 in
                  [|
                    (fun () ->
                      try Rt.block ~wake:(fun () -> false) "w"
                      with _ ->
                        while true do
                          ignore (Var.read v)
                        done);
                  |]))
        in
        Alcotest.(check (list (triple exec_end_t int int)))
          "ends" [ Explore.Serial_stuck 0, 0, 0 ] ends);
    test "serial: an operation that spins on another thread's flag diverges" (fun () ->
        (* the spin's reads and yields are no steps in serial mode, but they
           count against [max_steps]: the order that runs the spinner first
           ends [Diverged], the other finishes *)
        let config = { Explore.serial_config with max_steps = 1000 } in
        let setup () =
          let flag = Var.make false in
          [|
            (fun () ->
              Rt.op_boundary ();
              while not (Var.read flag) do
                Rt.yield ()
              done);
            (fun () ->
              Rt.op_boundary ();
              Var.write flag true);
          |]
        in
        let ends, stats =
          within 20. (fun () ->
              let ends = List.map (fun (e, _, errors) -> e, errors) (execution_ends config setup) in
              ends, explore_all config ~setup ~on_execution:(fun _ -> `Continue))
        in
        Alcotest.(check (list (pair exec_end_t int)))
          "ends" [ Explore.Diverged, 0; Explore.All_finished, 0 ] ends;
        Alcotest.(check int) "divergences" 1 stats.Explore.divergences);
    test "a wake predicate that raises ends the exploration alike in both modes" (fun () ->
        within 20. (fun () ->
            each_raises
              ~expected:(function Exit -> true | _ -> false)
              (fun ~boundary () -> blocked_on ~boundary (raises_second ()) ())));
    test "a wake predicate that reads a shared variable is unhandled in both modes" (fun () ->
        within 20. (fun () ->
            each_raises
              ~expected:(function Effect.Unhandled Rt.Access -> true | _ -> false)
              (fun ~boundary () ->
                let v = Var.make 0 in
                blocked_on ~boundary (fun () -> Var.read v = 1) ());
            unhandled_outside ()));
  ]

let tests = suite @ effects_contract
