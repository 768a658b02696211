(* The five workloads' inputs. Each is chosen to stress a different layer
   (README.md, "Workloads"); sizes are set so one pass takes 2–4 s on a
   2-core x86-64 host, giving several passes per measured run. *)

open Workloads

let inv ?arg name = Invocation.make ?arg name
let inv_int name n = Invocation.make ~arg:(Value.int n) name
let adapter name = (Registry.find name).Registry.adapter

let check_item ?(expect = References.verdict References.Pass) ~label ~config adapter columns =
  let test = Test_matrix.make columns in
  { label; ops = Test_matrix.num_invocations test; kind = Check { adapter; test; config; expect } }

(* ------------------------------------------------------------------ *)
(* table2-random                                                        *)
(* ------------------------------------------------------------------ *)

(* The 13 regression tests of §5.1: each must fail. *)
let regression_tests =
  [
    "ManualResetEvent (Pre: lost signal)", [ [ inv "Wait" ]; [ inv "Set" ] ];
    ( "ManualResetEvent (Pre: CAS typo)",
      [ [ inv "Wait"; inv "IsSet" ]; [ inv "Set"; inv "Reset" ] ] );
    ( "ConcurrentQueue (Pre: timed lock in TryDequeue)",
      [ [ inv_int "Enqueue" 200; inv_int "Enqueue" 400 ]; [ inv "TryDequeue"; inv "TryDequeue" ] ]
    );
    "SemaphoreSlim (Pre: unlocked release)", [ [ inv "Release" ]; [ inv "Release" ] ];
    "CountdownEvent (Pre: racy signal)", [ [ inv "Signal" ]; [ inv "Signal" ] ];
    ( "ConcurrentStack (Pre: non-atomic TryPopRange)",
      [ [ inv_int "Push" 1; inv_int "Push" 2 ]; [ inv_int "TryPopRange" 2 ] ] );
    "LazyInit (Pre: early publish)", [ [ inv "Value" ]; [ inv "Value" ] ];
    ( "TaskCompletionSource (Pre: racy TrySetResult)",
      [ [ inv_int "TrySetResult" 10 ]; [ inv_int "TrySetResult" 20 ] ] );
    "ConcurrentBag", [ [ inv_int "Add" 10; inv_int "Add" 20 ]; [ inv "TryTake" ] ];
    ( "BlockingCollection (segmented)",
      [ [ inv_int "Add" 200; inv_int "Add" 400 ]; [ inv "Count" ] ] );
    "CancellationTokenSource", [ [ inv "Cancel" ]; [ inv "IsCancellationRequested" ] ];
    "Barrier", [ [ inv "SignalAndWait" ]; [ inv "SignalAndWait" ] ];
    "Counter1 (unlocked inc)", [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ];
  ]

(* Uncapped: a regression test stops at its first violation (the CAS typo
   needs 2,799 executions). *)
let regression_items () =
  List.map
    (fun (name, columns) ->
      check_item ~label:("table2/regression " ^ name)
        ~expect:(References.apply (References.verdict References.Fail))
        ~config:Check.default_config (adapter name) columns)
    regression_tests

(* The random tests are the Table 2 artifact's own sample (6 random tests
   per class from PRNG seed 42, drawn exactly as [Random_check.run] draws
   them). They are fixed rather than drawn from [--seed]: single tests
   differ in cost by 50×, and a redrawn sample moved every end-to-end
   figure by 15–40% from seed to seed. [--seed] shuffles the order. *)
let table2_sample_seed = 42
let table2_samples = 6

let shuffle ~seed items =
  let a = Array.of_list items in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let table2 ~seed ~smoke =
  let dim, cap = if smoke then 2, 50 else 3, 1500 in
  let config = Check.config_with ~max_executions:(Some cap) () in
  let regression = regression_items () in
  let random =
    List.concat_map
      (fun (e : Registry.entry) ->
        let a = e.Registry.adapter in
        (* Theorem 5: a class registered as correct never fails *)
        let expect =
          References.apply
            (References.verdict
               (if e.Registry.expected = Registry.Pass then References.Pass else References.Any))
        in
        let rng = Random.State.make [| table2_sample_seed |] in
        List.init table2_samples (fun _ ->
            let test =
              Test_matrix.random ~rng ~invocations:a.Adapter.universe ~rows:dim ~cols:dim ()
            in
            {
              label = "table2/random " ^ a.Adapter.name;
              ops = Test_matrix.num_invocations test;
              kind = Check { adapter = a; test; config; expect };
            }))
      Registry.all
  in
  let items = shuffle ~seed (regression @ random) in
  let warmup =
    List.find (fun i -> i.label = "table2/regression ManualResetEvent (Pre: CAS typo)") regression
  in
  { items; warmup }

(* ------------------------------------------------------------------ *)
(* por-check                                                            *)
(* ------------------------------------------------------------------ *)

let por_config ?cap ~pb () =
  Check.config_with ~preemption_bound:(Some pb) ~max_executions:cap ~por:true ()

let stack_2t_smoke =
  [ [ inv_int "Push" 1; inv "TryPop" ]; [ inv_int "Push" 2; inv "TryPop" ] ]

(* the 3x3 stack test of bench/membership_bench.ml *)
let stack_3x3 =
  [
    [ inv_int "Push" 1; inv "TryPop"; inv_int "Push" 2 ];
    [ inv_int "Push" 3; inv "TryPop"; inv "TryPop" ];
    [ inv_int "Push" 4; inv "TryPop"; inv_int "Push" 5 ];
  ]

let por_check ~seed:_ ~smoke =
  let stack = adapter "ConcurrentStack" in
  let item label ~config columns =
    check_item ~label ~expect:(References.find label) ~config stack columns
  in
  let smoke_item = item "por/stack-2t-smoke" ~config:(por_config ~pb:2 ()) stack_2t_smoke in
  let items =
    if smoke then [ smoke_item ]
    else
      [
        (* one complete verdict dominated by exploration and DPOR bookkeeping *)
        item "por/stack-3t-pb1" ~config:(por_config ~pb:1 ())
          [
            [ inv_int "Push" 1; inv "TryPop" ];
            [ inv_int "Push" 2; inv "TryPop" ];
            [ inv "TryPop" ];
          ];
        item "por/stack-2t-deep" ~config:(por_config ~pb:2 ())
          [
            [ inv_int "Push" 1; inv "TryPop"; inv_int "Push" 3 ];
            [ inv_int "Push" 2; inv "TryPop"; inv "TryPop" ];
          ];
        (* deep traces: DPOR cost that grows with trace depth *)
        check_item ~label:"por/stack-3x3-capped" ~config:(por_config ~cap:5000 ~pb:2 ()) stack
          stack_3x3;
      ]
  in
  let warmup =
    if smoke then smoke_item
    else
      check_item ~label:"por/stack-3x3-warmup" ~config:(por_config ~cap:500 ~pb:2 ()) stack
        stack_3x3
  in
  { items; warmup }

(* ------------------------------------------------------------------ *)
(* weak-memory                                                          *)
(* ------------------------------------------------------------------ *)

let litmus = [ [ inv "Inc"; inv "Get" ]; [ inv "Inc" ] ]

let weak_memory ~seed:_ ~smoke =
  let item label ?expect adapter ~pb memory =
    let expect = match expect with Some e -> e | None -> References.find label in
    check_item ~label ~expect
      ~config:(Check.config_with ~preemption_bound:(Some pb) ~por:true ~memory ())
      adapter litmus
  in
  let fenced = Lineup_conc.Dekker.fenced and fence_free = Lineup_conc.Dekker.fence_free in
  let must_fail = References.apply (References.verdict References.Fail) in
  let matrix =
    [
      item "weak/fenced-sc-pb1" fenced ~pb:1 Memory_model.Sc;
      item "weak/fence-free-sc-pb1" fence_free ~pb:1 Memory_model.Sc;
      item "weak/fence-free-tso-pb1" ~expect:must_fail fence_free ~pb:1 Memory_model.Tso;
      item "weak/fence-free-pso-pb1" ~expect:must_fail fence_free ~pb:1 Memory_model.Pso;
    ]
  in
  let items =
    if smoke then matrix
    else
      (* complete weak-memory explorations: flush choices dominate *)
      item "weak/fenced-tso-pb0" fenced ~pb:0 Memory_model.Tso
      :: item "weak/fenced-pso-pb0" fenced ~pb:0 Memory_model.Pso
      :: matrix
  in
  { items; warmup = List.hd matrix }

(* ------------------------------------------------------------------ *)
(* monitor-stream                                                       *)
(* ------------------------------------------------------------------ *)

(* Each generator writes [n] operations to [emit] as call/return pairs.
   Responses are honest, so the stream is linearizable by construction
   unless [bad_at] is given. *)

(* A 2-thread producer/consumer stream: thread 0 inserts fresh values,
   thread 1 removes them (FIFO or LIFO) or fails on an empty bag. With
   [bad_at = k], the first successful removal at or after operation [k]
   returns a value never inserted, so the stream must be rejected. *)
let producer_consumer rng emit ?bad_at ~insert ~remove ~lifo n =
  let bag = Queue.create () and stack = ref [] and size = ref 0 in
  let next = ref 0 in
  let op = [| 0; 0 |] in
  let complete tid inv resp =
    let op_index = op.(tid) in
    op.(tid) <- op_index + 1;
    emit (Event.call ~tid ~op_index inv);
    emit (Event.return ~tid ~op_index resp)
  in
  let bad = ref bad_at in
  for k = 1 to n do
    if Random.State.bool rng || (!size = 0 && Random.State.bool rng) then begin
      incr next;
      complete 0 (inv_int insert !next) Value.Unit;
      incr size;
      if lifo then stack := !next :: !stack else Queue.add !next bag
    end
    else if !size = 0 then complete 1 (inv remove) Value.Fail
    else begin
      decr size;
      let v =
        if lifo then (
          match !stack with
          | v :: rest ->
            stack := rest;
            v
          | [] -> assert false)
        else Queue.pop bag
      in
      let v =
        match !bad with
        | Some b when k >= b ->
          bad := None;
          0
        | _ -> v
      in
      complete 1 (inv remove) (Value.Int v)
    end
  done

(* A single-thread stream over a set of [keys] integer keys. *)
let key_set rng emit ~keys n =
  let present = Array.make keys false in
  for op_index = 0 to n - 1 do
    let k = Random.State.int rng keys in
    let name, resp =
      match Random.State.int rng 3 with
      | 0 ->
        let r = not present.(k) in
        present.(k) <- true;
        "Add", r
      | 1 ->
        let r = present.(k) in
        present.(k) <- false;
        "Remove", r
      | _ -> "Contains", present.(k)
    in
    emit (Event.call ~tid:0 ~op_index (inv_int name k));
    emit (Event.return ~tid:0 ~op_index (Value.Bool resp))
  done

let monitor_stream ~seed ~smoke =
  let scale = if smoke then 100 else 1 in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let queue = Spec.Packed Lineup_spec.Specs.queue
  and stack = Spec.Packed Lineup_spec.Specs.stack
  and set = Spec.Packed Lineup_spec.Specs.key_set in
  let stream label spec ~accept n generate =
    let path = label ^ ".ndjson" in
    Out_channel.with_open_bin path (fun oc ->
        generate (fun ev ->
            output_string oc (Mon.Mevent.render ev);
            output_char oc '\n')
          n);
    { label = "monitor/" ^ label; ops = n; kind = Stream { spec; path; accept } }
  in
  let fifo ?bad_at emit n =
    producer_consumer rng emit ?bad_at ~insert:"Enqueue" ~remove:"TryDequeue" ~lifo:false n
  in
  let lifo emit n = producer_consumer rng emit ~insert:"Push" ~remove:"TryPop" ~lifo:true n in
  let bad_n = 80_000 / scale in
  let items =
    [
      stream "queue" queue ~accept:true (150_000 / scale) fifo;
      stream "stack" stack ~accept:true (90_000 / scale) lifo;
      stream "set" set ~accept:true (30_000 / scale) (key_set rng ~keys:64);
      stream "queue-bad" queue ~accept:false bad_n (fifo ~bad_at:(bad_n / 2));
    ]
  in
  let warmup = stream "warmup" queue ~accept:true 2_000 fifo in
  { items; warmup }

(* ------------------------------------------------------------------ *)
(* shard-sweep                                                          *)
(* ------------------------------------------------------------------ *)

let shard_matrices =
  [
    ( "queue",
      "ConcurrentQueue",
      [
        [ inv_int "Enqueue" 200; inv_int "Enqueue" 400; inv "TryDequeue" ];
        [ inv "TryDequeue"; inv_int "Enqueue" 600 ];
        [ inv "TryDequeue" ];
      ] );
    ( "stack",
      "ConcurrentStack",
      [
        [ inv_int "Push" 1; inv_int "Push" 2; inv "TryPop" ];
        [ inv "TryPop"; inv_int "Push" 3 ];
        [ inv "TryPop" ];
      ]
    );
  ]

(* [cap] is per partition; below the frontier size (57) it also caps the
   number of partitions. *)
let sweep_item ~label ~cap ~expect (key, cls, columns) =
  let test = Test_matrix.make columns in
  let config = Check.config_with ~max_executions:(Some cap) () in
  let check = { adapter = adapter cls; test; config; expect } in
  { label; ops = Test_matrix.num_invocations test; kind = Sweep (check, "sweep-" ^ key) }

let shard_sweep ~seed:_ ~smoke =
  let committed ((key, _, _) as matrix) =
    let label = "shard/" ^ key ^ if smoke then "-smoke" else "" in
    sweep_item ~label ~cap:(if smoke then 20 else 700) ~expect:(References.find label) matrix
  in
  let queue = List.hd shard_matrices in
  if smoke then { items = [ committed queue ]; warmup = committed queue }
  else
    {
      items = List.map committed shard_matrices;
      (* a whole small sweep, so set-up is not just two process spawns *)
      warmup =
        sweep_item ~label:"shard/queue-warmup" ~cap:100
          ~expect:(References.verdict References.Pass) queue;
    }

(* ------------------------------------------------------------------ *)

(* Why each workload was chosen: README.md and BENCHMARK.json. *)
let all =
  [
    { name = "table2-random"; setup = table2 };
    { name = "por-check"; setup = por_check };
    { name = "weak-memory"; setup = weak_memory };
    { name = "monitor-stream"; setup = monitor_stream };
    { name = "shard-sweep"; setup = shard_sweep };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
