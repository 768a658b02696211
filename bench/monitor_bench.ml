(* The --section monitor artifact: sustained throughput of the streaming
   monitor, the headline ops/sec number for the `lineup monitor` service
   component.

   Three direct lanes feed a generated accepting stream straight into the
   engine layer ([Lineup_monitor.Engine]), measuring the checking cost
   alone — queue and stack through the near-linear decrease-and-conquer
   engines, set through the keyed chunked feasible-state engine. A fourth
   lane times the full CLI end to end over a temp file (process start,
   reading and NDJSON scanning on the checking domain, driver rounds),
   which adds the cost of the text format.

   Rows land in the lineup-bench/2 JSON with extras: throughput_ops_s
   (completed operations per wall-second — the CI sanity floor),
   resident_peak and windows. Streams are generated deterministically from
   the --seed option; test/test_monitor.ml pins the queue lane's stream at
   the default seed, accepted over more than one window. *)

open Bench_common
module Event = H.Event
module Invocation = H.Invocation
module Mon = Lineup_monitor
module Spec = Lineup_spec.Spec
module Monitor = Lineup_spec.Monitor
module Monotonic = Lineup_observe.Monotonic

(* An accepting 2-thread producer/consumer stream over [n] operations:
   thread 0 inserts distinct values, thread 1 removes them (or draws an
   honest Fail while the bag is empty), with call/return adjacency varied
   by the PRNG so windows close at irregular quiescent points. *)
let gen_pc_stream rng ~insert ~remove ~lifo n =
  let events = ref [] in
  let emit e = events := e :: !events in
  (* the bag of inserted-not-yet-removed values; FIFO pops the oldest,
     LIFO the newest *)
  let fifo = Queue.create () in
  let stack = ref [] in
  let size = ref 0 in
  let push_bag v =
    incr size;
    if lifo then stack := v :: !stack else Queue.add v fifo
  in
  let pop_bag () =
    decr size;
    if lifo then (
      match !stack with
      | v :: rest ->
        stack := rest;
        v
      | [] -> assert false)
    else Queue.pop fifo
  in
  let next = ref 0 in
  let op = Array.make 2 0 in
  let complete tid inv resp =
    let op_index = op.(tid) in
    op.(tid) <- op_index + 1;
    emit (Event.call ~tid ~op_index inv);
    emit (Event.return ~tid ~op_index resp)
  in
  for _ = 1 to n do
    if Random.State.int rng 2 = 0 || (!size = 0 && Random.State.bool rng) then begin
      (* contiguous values: lets the Diet interval compression of the
         inserted/removed sets do its job (resident stays O(bag size)) *)
      let v = !next + 1 in
      incr next;
      complete 0 (Invocation.make ~arg:(Value.Int v) insert) Value.Unit;
      push_bag v
    end
    else if !size = 0 then complete 1 (Invocation.make remove) Value.Fail
    else complete 1 (Invocation.make remove) (Value.Int (pop_bag ()))
  done;
  List.rev !events

(* An accepting keyed set stream: serial per key by construction (each op
   completes before the next), states tracked so responses are honest. *)
let gen_set_stream rng ~keys n =
  let events = ref [] in
  let emit e = events := e :: !events in
  let present = Array.make keys false in
  let op = ref 0 in
  for _ = 1 to n do
    let k = Random.State.int rng keys in
    let op_index = !op in
    incr op;
    let name, resp =
      match Random.State.int rng 3 with
      | 0 ->
        let r = Value.Bool (not present.(k)) in
        present.(k) <- true;
        "Add", r
      | 1 ->
        let r = Value.Bool present.(k) in
        present.(k) <- false;
        "Remove", r
      | _ -> "Contains", Value.Bool present.(k)
    in
    emit (Event.call ~tid:0 ~op_index (Invocation.make ~arg:(Value.Int k) name));
    emit (Event.return ~tid:0 ~op_index resp)
  done;
  List.rev !events

let time_engine ~spec ~min_batch events =
  let engine = Mon.Engine.create ~spec ~min_batch ~max_window:1_048_576 in
  let t0 = Monotonic.now () in
  List.iter (Mon.Engine.feed engine) events;
  let verdict = Mon.Engine.finalize engine in
  let wall = Monotonic.elapsed_since t0 in
  engine, verdict, wall

let row ~cls ~config ~wall ~ops ~resident ~windows ~verdict =
  let throughput = if wall > 0. then float_of_int ops /. wall else 0. in
  Fmt.pr "  %-14s %8d ops in %6.3fs — %9.0f ops/s, resident %d, windows %d (%s)@." config
    ops wall throughput resident windows
    (match (verdict : Monitor.verdict) with
     | Monitor.Accept -> "OK"
     | Monitor.Reject -> "VIOLATION"
     | Monitor.Unsupported r -> "UNSUPPORTED: " ^ r);
  add_row ~section:"monitor" ~cls ~config ~wall_s:wall ~executions:ops
    ~extras:
      [
        "throughput_ops_s", Printf.sprintf "%.0f" throughput;
        "resident_peak", string_of_int resident;
        "windows", string_of_int windows;
      ]
    ()

let direct_lane rng ~cls ~config ~spec ~events =
  let engine, verdict, wall = time_engine ~spec ~min_batch:512 events in
  ignore rng;
  row ~cls ~config ~wall
    ~ops:(Mon.Engine.ops engine)
    ~resident:(Mon.Engine.resident engine)
    ~windows:(Mon.Engine.windows engine)
    ~verdict

(* bench/main.exe and bin/lineup_cli.exe live in the same _build tree. *)
let cli_path () =
  let bench_dir = Filename.dirname Sys.executable_name in
  let cand =
    Filename.concat (Filename.dirname bench_dir) (Filename.concat "bin" "lineup_cli.exe")
  in
  if Sys.file_exists cand then Some cand else None

let cli_lane ~cls ~config ~spec_name ~events =
  match cli_path () with
  | None -> Fmt.pr "  %-14s skipped (lineup_cli.exe not built)@." config
  | Some cli ->
    let path = Filename.temp_file "lineup_monitor_bench" ".ndjson" in
    let oc = open_out path in
    List.iter
      (fun ev ->
        output_string oc (Lineup_history.Trace_event.render ev);
        output_char oc '\n')
      events;
    close_out oc;
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let t0 = Monotonic.now () in
    let pid =
      Unix.create_process cli
        [| cli; "monitor"; spec_name; path |]
        Unix.stdin null null
    in
    let _, status = Unix.waitpid [] pid in
    let wall = Monotonic.elapsed_since t0 in
    Unix.close null;
    Sys.remove path;
    let ops = List.length events / 2 in
    let verdict =
      match status with
      | Unix.WEXITED 0 -> Monitor.Accept
      | Unix.WEXITED 1 -> Monitor.Reject
      | _ -> Monitor.Unsupported "unexpected exit"
    in
    row ~cls ~config ~wall ~ops ~resident:0 ~windows:0 ~verdict

let run (opts : options) =
  hr "Streaming monitor: sustained throughput (--section monitor)";
  let n = if opts.cap >= 50_000 then 500_000 else 200_000 in
  let rng = Random.State.make [| opts.seed; 0x5eed |] in
  let queue_events =
    gen_pc_stream rng ~insert:"Enqueue" ~remove:"TryDequeue" ~lifo:false n
  in
  let stack_events = gen_pc_stream rng ~insert:"Push" ~remove:"TryPop" ~lifo:true n in
  let set_events = gen_set_stream rng ~keys:64 (n / 10) in
  let queue_spec = Spec.Packed Lineup_spec.Specs.queue in
  let stack_spec = Spec.Packed Lineup_spec.Specs.stack in
  let set_spec = Spec.Packed Lineup_spec.Specs.key_set in
  direct_lane rng ~cls:"queue" ~config:"queue-direct" ~spec:queue_spec
    ~events:queue_events;
  direct_lane rng ~cls:"stack" ~config:"stack-direct" ~spec:stack_spec
    ~events:stack_events;
  direct_lane rng ~cls:"set" ~config:"set-direct" ~spec:set_spec ~events:set_events;
  cli_lane ~cls:"queue" ~config:"queue-cli" ~spec_name:"queue" ~events:queue_events
