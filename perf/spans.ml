(* The traced run's span recorder. Spans wrap the benchmark's own calls
   into each layer; they are kept in memory and written out once, when the
   run ends, so recording costs a clock read and a cons per span. When
   tracing is off, [with_span] is a plain call. *)

module Monotonic = Lineup_observe.Monotonic

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 1

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let start = Monotonic.now () in
    let close () =
      open_ids := List.tl !open_ids;
      recorded := { id; parent; name; start; stop = Monotonic.now () } :: !recorded
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let duration s = s.stop -. s.start
let all () = List.rev !recorded

(* Total duration of every span called [name]. *)
let total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. !recorded

(* A span's self time: its duration minus the time its children cover.
   Children of one span never overlap (spans are opened on one domain), so
   the covered time is the sum of their durations. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (prev +. duration s))
    !recorded;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let tot, slf, n = Option.value ~default:(0., 0., 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (tot +. duration s, slf +. self, n + 1))
    !recorded;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> Float.compare b a)

(* A well-formed trace: every parent id names an enclosing span. *)
let properly_nested () =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !recorded;
  List.for_all
    (fun s ->
      s.parent = 0
      ||
      match Hashtbl.find_opt by_id s.parent with
      | Some p -> p.start <= s.start && s.stop <= p.stop
      | None -> false)
    !recorded

let write ~path ~workload ~seed =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string_compact
           (Json.Obj
              [
                "name", Json.Str s.name;
                "id", Json.Num (float s.id);
                "parent", Json.Num (float s.parent);
                "start", Json.Num s.start;
                "end", Json.Num s.stop;
                "workload", Json.Str workload;
                "seed", Json.Num (float seed);
              ]));
      output_char oc '\n')
    (all ());
  close_out oc
