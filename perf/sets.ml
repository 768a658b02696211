(* Sets of runs: recording them ([record]), comparing a parent's set with
   a change's ([compare]), summarising them for perf/baseline
   ([baseline]), and the smoke test ([smoke]). A set is a directory of
   [WORKLOAD.SEED.json] files, each holding one run's result line. *)

(* The benchmark's declared workloads and metrics. *)
type metric_decl = {
  name : string;
  better : string;  (** "lower" or "higher" *)
  bound : float;
}

type decl = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric_decl list;
  per_layer : string list;
}

let read_decl path =
  let j = Json.read_file path in
  let names key =
    List.map (fun w -> Json.to_string (Json.member "name" w)) (Json.to_list (Json.member key j))
  in
  {
    run_seconds = int_of_float (Json.to_float (Json.member "run_seconds" j));
    workloads = names "workloads";
    end_to_end =
      List.map
        (fun m ->
          {
            name = Json.to_string (Json.member "name" m);
            better = Json.to_string (Json.member "better" m);
            bound = Json.to_float (Json.member "bound" m);
          })
        (Json.to_list (Json.member "end_to_end" j));
    per_layer = names "per_layer";
  }

(* Run this executable with [args]; returns its exit status and stdout.
   Its stderr goes to [stderr_path] (or nowhere). *)
let spawn ?stderr_path args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile (Option.value ~default:"/dev/null" stderr_path)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin
      wr err
  in
  Unix.close wr;
  Unix.close err;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  status, out

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let run_args ~workload ~seed ~seconds ~trace =
  [
    "--workload"; workload;
    "--seed"; string_of_int seed;
    "--seconds"; string_of_int seconds;
    "--trace"; (if trace then "1" else "0");
  ]

(* ------------------------------------------------------------------ *)
(* record                                                               *)
(* ------------------------------------------------------------------ *)

let record ~decl ~dir ~runs ~seed ~trace =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  for r = 0 to runs - 1 do
    List.iter
      (fun workload ->
        let seed = seed + r in
        let base = Filename.concat dir (Printf.sprintf "%s.%d" workload seed) in
        let status, out =
          spawn ~stderr_path:(base ^ ".log")
            (run_args ~workload ~seed ~seconds:decl.run_seconds ~trace)
        in
        let line = last_line out in
        Out_channel.with_open_bin (base ^ ".json") (fun oc -> output_string oc (line ^ "\n"));
        Printf.printf "%s seed %d: %s\n%!" workload seed
          (match status with Unix.WEXITED 0 -> "ok" | _ -> "FAILED (see " ^ base ^ ".log)"))
      decl.workloads
  done

(* ------------------------------------------------------------------ *)
(* Reading sets                                                         *)
(* ------------------------------------------------------------------ *)

(* (seed, result) for every run of [workload] in [dir]. *)
let runs_of ~dir ~workload =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         match String.split_on_char '.' f with
         | [ w; seed; "json" ] when w = workload -> (
           match int_of_string_opt seed, Json.read_file (Filename.concat dir f) with
           | Some s, j -> Some (s, j)
           | None, _ | (exception (Json.Error _ | Sys_error _)) -> None)
         | _ -> None)

let value j name =
  match Json.member "value" (Json.member name (Json.member "metrics" j)) with
  | Json.Num f -> Some f
  | _ -> None

let values runs name = List.filter_map (fun (_, j) -> value j name) runs

type summary = {
  n : int;
  q1 : float;
  med : float;
  q3 : float;
}

let summarize xs =
  let q1, med, q3 = Stats.quartiles xs in
  { n = List.length xs; q1; med; q3 }

let spread s = Stats.ratio (s.q3 -. s.q1) (Float.abs s.med)

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let compare_sets ~decl ~parent ~change =
  Printf.printf "%-15s %-14s %12s %12s %7s %7s %6s  %s\n" "workload" "metric" "parent" "change"
    "delta" "spread" "wins" "label";
  let regressed = ref 0 in
  List.iter
    (fun workload ->
      let pr = runs_of ~dir:parent ~workload and cr = runs_of ~dir:change ~workload in
      List.iter
        (fun (m : metric_decl) ->
          let pv = values pr m.name and cv = values cr m.name in
          if pv = [] || cv = [] then
            Printf.printf "%-15s %-14s %12s %12s %7s %7s %6s  missing\n" workload m.name "-" "-" "-"
              "-" "-"
          else begin
            let ps = summarize pv and cs = summarize cv in
            let lower = m.better = "lower" in
            let better a b = if lower then a < b else a > b in
            (* pairs share a seed; ties count for neither side *)
            let pairs =
              List.filter_map
                (fun (seed, pj) ->
                  match List.assoc_opt seed cr with
                  | Some cj -> (
                    match value pj m.name, value cj m.name with
                    | Some p, Some c -> Some (p, c)
                    | _ -> None)
                  | None -> None)
                pr
            in
            let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
            let win_share = Stats.ratio (float wins) (float (List.length pairs)) in
            let delta = Stats.ratio (cs.med -. ps.med) (Float.abs ps.med) in
            let worse = if lower then delta else -.delta in
            let all_better = List.for_all (fun c -> List.for_all (fun p -> better c p) pv) cv in
            (* A gain needs 90% of the paired wins and a median difference
               wider than the parent's own quartile distance; a parent
               spread wider than the bound leaves the row unresolved unless
               every change run beats every parent run. *)
            let label =
              if worse > m.bound then "regressed"
              else if win_share >= 0.9 && Float.abs (cs.med -. ps.med) > ps.q3 -. ps.q1 then
                "improved"
              else if spread ps > m.bound && not all_better then "unresolved"
              else "unchanged"
            in
            if label = "regressed" then incr regressed;
            Printf.printf
              "%-15s %-14s %12.5g %12.5g %+6.1f%% %6.1f%% %5.0f%%  %s (q1..q3 %.5g..%.5g | \
               %.5g..%.5g, n=%d/%d)\n"
              workload m.name ps.med cs.med (100. *. delta) (100. *. spread ps) (100. *. win_share)
              label ps.q1 ps.q3 cs.q1 cs.q3 ps.n cs.n
          end)
        decl.end_to_end)
    decl.workloads;
  if !regressed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* baseline                                                             *)
(* ------------------------------------------------------------------ *)

let set_json ~decl ~dir ~names =
  Json.Obj
    (List.map
       (fun workload ->
         let runs = runs_of ~dir ~workload in
         ( workload,
           Json.Obj
             (List.filter_map
                (fun name ->
                  match values runs name with
                  | [] -> None
                  | xs ->
                    let s = summarize xs in
                    Some
                      ( name,
                        Json.Obj
                          [
                            "median", Json.Num s.med;
                            "q1", Json.Num s.q1;
                            "q3", Json.Num s.q3;
                            "spread", Json.Num (spread s);
                            "runs", Json.Num (float s.n);
                          ] ))
                names) ))
       decl.workloads)

let seeds_of ~decl ~dir =
  List.sort_uniq compare
    (List.concat_map (fun workload -> List.map fst (runs_of ~dir ~workload)) decl.workloads)

let baseline ~decl ~commit ~a ~b ~traced =
  let e2e = List.map (fun (m : metric_decl) -> m.name) decl.end_to_end in
  let seeds dir = Json.Arr (List.map (fun s -> Json.Num (float s)) (seeds_of ~decl ~dir)) in
  let doc =
    Json.Obj
      [
        "schema", Json.Str "lineup-perf-baseline/1";
        "commit", Json.Str commit;
        "ocaml", Json.Str Sys.ocaml_version;
        "nproc", Json.Num (float (Domain.recommended_domain_count ()));
        "run_seconds", Json.Num (float decl.run_seconds);
        "set_a", Json.Obj [ "seeds", seeds a; "metrics", set_json ~decl ~dir:a ~names:e2e ];
        "set_b", Json.Obj [ "seeds", seeds b; "metrics", set_json ~decl ~dir:b ~names:e2e ];
        ( "traced",
          Json.Obj
            [ "seeds", seeds traced; "metrics", set_json ~decl ~dir:traced ~names:decl.per_layer ]
        );
      ]
  in
  print_string (Json.to_string_pretty doc)

(* ------------------------------------------------------------------ *)
(* smoke                                                                *)
(* ------------------------------------------------------------------ *)

(* Every workload on tiny inputs, untraced and traced: each must judge
   every verdict right and print exactly the metrics BENCHMARK.json names.
   Then each again with corrupted references, which must be caught. *)
let smoke ~decl =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let run ~workload ~trace extra =
    let status, out = spawn (run_args ~workload ~seed:1 ~seconds:0 ~trace @ ("--smoke" :: extra)) in
    if status <> Unix.WEXITED 0 then problem "%s: exit status not 0" workload;
    Json.parse_opt (last_line out)
  in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let want =
            List.sort compare
              (if trace then decl.per_layer
               else List.map (fun (m : metric_decl) -> m.name) decl.end_to_end)
          in
          match run ~workload ~trace [] with
          | None -> problem "%s (trace %b): no JSON result line" workload trace
          | Some j ->
            if Json.member "correct" j <> Json.Bool true || Json.member "failed" j <> Json.Num 0.
            then problem "%s (trace %b): wrong verdicts" workload trace;
            let got =
              match Json.member "metrics" j with
              | Json.Obj kvs -> List.sort compare (List.map fst kvs)
              | _ -> []
            in
            if got <> want then
              problem "%s (trace %b): metric names differ from BENCHMARK.json" workload trace)
        [ false; true ];
      match run ~workload ~trace:false [ "--corrupt-references" ] with
      | Some j when Json.member "correct" j = Json.Bool false -> ()
      | _ -> problem "%s: a corrupted reference went unnoticed" workload)
    decl.workloads;
  match !problems with
  | [] -> Printf.printf "perf smoke: %d workloads ok\n" (List.length decl.workloads)
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1
