(* The benchmark's command line.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--trace-file FILE] [--smoke] [--corrupt-references]
     main.exe verify-references
     main.exe smoke BENCHMARK.json
     main.exe record DIR [--runs N] [--seed N] [--trace]
     main.exe compare PARENT_DIR CHANGE_DIR
     main.exe baseline SET_A SET_B TRACED --commit SHA

   A run prints one JSON result as the last line of stdout; everything
   else goes to stderr. [record], [compare] and [baseline] read
   BENCHMARK.json from the current directory. See README.md. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--trace-file FILE] [--smoke]\n\
    \       main.exe verify-references | smoke BENCHMARK.json\n\
    \       main.exe record DIR [--runs N] [--seed N] [--trace]\n\
    \       main.exe compare PARENT_DIR CHANGE_DIR | baseline SET_A SET_B TRACED --commit SHA";
  exit 2

(* [--flag value] pairs and bare [--switch]es, in any order. *)
let parse_flags ~switches args =
  let rec go acc = function
    | [] -> acc
    | f :: rest when List.mem f switches -> go ((f, "") :: acc) rest
    | f :: v :: rest when String.starts_with ~prefix:"--" f -> go ((f, v) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let int_flag flags name ~default =
  match List.assoc_opt name flags with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let absolute path = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Runs write their input files, shard directories and sockets into a
   private directory next to the executable (inside the build tree), and
   remove it when they end. Relative paths keep socket names short. *)
let in_work_dir f =
  let work =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Printf.sprintf "perf-work-%d" (Unix.getpid ()))
  in
  let back = Sys.getcwd () in
  rm_rf work;
  Unix.mkdir work 0o755;
  Sys.chdir work;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir back;
      rm_rf work)
    f

let run_cmd args =
  let flags = parse_flags ~switches:[ "--smoke"; "--corrupt-references" ] args in
  let workload =
    match List.assoc_opt "--workload" flags with
    | None -> usage ()
    | Some name -> (
      match Suite.find name with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %S\n" name;
        exit 2)
  in
  let seed = int_flag flags "--seed" ~default:1 in
  let seconds = float (int_flag flags "--seconds" ~default:15) in
  let trace = int_flag flags "--trace" ~default:0 <> 0 in
  let trace_file = Option.map absolute (List.assoc_opt "--trace-file" flags) in
  References.corrupt := List.mem_assoc "--corrupt-references" flags;
  let result =
    in_work_dir (fun () ->
        Run.run ~workload ~seed ~seconds ~trace ~smoke:(List.mem_assoc "--smoke" flags))
  in
  Option.iter (fun path -> Spans.write ~path ~workload:workload.Workloads.name ~seed) trace_file;
  print_endline (Run.result_json result)

let shard_worker = function
  | [ "--connect"; connect ] ->
    let lookup name =
      match Lineup_conc.Registry.find name with
      | e -> Some e.Lineup_conc.Registry.adapter
      | exception Not_found -> None
    in
    exit (Lineup_shard.Worker.run ~connect ~lookup ())
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "shard-worker" :: args -> shard_worker args
  | [ "verify-references" ] -> Verify.run ()
  | [ "smoke"; benchmark ] -> Sets.smoke ~decl:(Sets.read_decl benchmark)
  | "record" :: dir :: args ->
    let flags = parse_flags ~switches:[ "--trace" ] args in
    Sets.record ~decl:(Sets.read_decl "BENCHMARK.json") ~dir
      ~runs:(int_flag flags "--runs" ~default:10) ~seed:(int_flag flags "--seed" ~default:1)
      ~trace:(List.mem_assoc "--trace" flags)
  | [ "compare"; parent; change ] ->
    Sets.compare_sets ~decl:(Sets.read_decl "BENCHMARK.json") ~parent ~change
  | [ "baseline"; a; b; traced; "--commit"; commit ] ->
    Sets.baseline ~decl:(Sets.read_decl "BENCHMARK.json") ~commit ~a ~b ~traced
  | ("--workload" :: _ | "--seed" :: _ | "--seconds" :: _ | "--trace" :: _) as args -> run_cmd args
  | _ -> usage ()
