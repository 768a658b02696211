module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Event = Lineup_history.Event
module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history

type key = (int * (Invocation.t * Value.t option) list) list

(* Operation ids are assigned per section: threads in ascending id order,
   operations in per-thread order, numbered from 1. *)
let id_map (key : key) =
  let tbl : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 1 in
  List.iter
    (fun (tid, ops) ->
      List.iteri
        (fun op_index _ ->
          Hashtbl.replace tbl (tid, op_index) !next;
          incr next)
        ops)
    key;
  tbl

let thread_label_of_tid = Event.thread_label

let int_token what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Observation_file: bad %s %S" what s)

let tid_of_thread_label s =
  if s = "" then invalid_arg "Observation_file: empty thread label";
  let letter = Char.code s.[0] - Char.code 'A' in
  if letter < 0 || letter > 25 then
    invalid_arg (Fmt.str "Observation_file: bad thread label %S" s);
  if String.length s = 1 then letter
  else letter + (26 * int_token "thread label" (String.sub s 1 (String.length s - 1)))

let group_to_xml ~(key : key) ~interleavings =
  let ids = id_map key in
  let thread_elems =
    List.map
      (fun (tid, ops) ->
        let tokens =
          List.mapi
            (fun op_index (_, resp) ->
              let id = Hashtbl.find ids (tid, op_index) in
              match resp with
              | Some _ -> string_of_int id
              | None -> string_of_int id ^ "B")
            ops
        in
        Xml.Element
          ( "thread",
            [ "id", thread_label_of_tid tid ],
            match tokens with [] -> [] | _ -> [ Xml.Text (String.concat " " tokens) ] ))
      key
  in
  let op_elems =
    List.concat_map
      (fun (tid, ops) ->
        List.mapi
          (fun op_index ((inv : Invocation.t), resp) ->
            let id = Hashtbl.find ids (tid, op_index) in
            let attrs = [ "id", string_of_int id; "name", inv.name ] in
            let attrs =
              match inv.arg with
              | Value.Unit -> attrs
              | arg -> attrs @ [ "value", Value.to_string arg ]
            in
            let attrs =
              match resp with
              | Some r -> attrs @ [ "result", Value.to_string r ]
              | None -> attrs
            in
            Xml.Element ("op", attrs, []))
          ops)
      key
  in
  let history_elems = List.map (fun s -> Xml.Element ("history", [], [ Xml.Text s ])) interleavings in
  Xml.Element ("observation", [], thread_elems @ op_elems @ history_elems)

(* Tokens of a history using section-style ids (per-thread order). *)
let interleaving_tokens_keyed ids h =
  let tokens =
    List.map
      (fun (e : Event.t) ->
        let id = Hashtbl.find ids (e.tid, e.op_index) in
        match e.dir with
        | Event.Call _ -> Fmt.str "%d[" id
        | Event.Return _ -> Fmt.str "]%d" id)
      (History.events h)
  in
  let tokens = if History.is_stuck h then tokens @ [ "#" ] else tokens in
  String.concat " " tokens

let interleaving_tokens h = interleaving_tokens_keyed (id_map (History.thread_key h)) h

(* Each group lists its histories in the order they were first added, so
   [observation_of_histories] on the parsed file rebuilds every candidate
   list of the witness index, and with it every probe count. *)
let to_xml ?(root_attrs = []) obs =
  let groups : (key, Serial_history.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let insert s =
    let key = Serial_history.thread_key s in
    match Hashtbl.find_opt groups key with
    | Some l -> l := s :: !l
    | None -> Hashtbl.replace groups key (ref [ s ])
  in
  List.iter insert (Observation.full_histories obs);
  List.iter insert (Observation.stuck_histories obs);
  let sections =
    Hashtbl.fold
      (fun key histories acc ->
        let ids = id_map key in
        let interleavings =
          List.rev_map
            (fun s -> interleaving_tokens_keyed ids (Serial_history.to_history s))
            !histories
        in
        (key, group_to_xml ~key ~interleavings) :: acc)
      groups []
    (* deterministic output order *)
    |> List.sort (fun (k1, _) (k2, _) -> Stdlib.compare k1 k2)
    |> List.map snd
  in
  Xml.Element ("observationset", root_attrs, sections)

let to_string ?root_attrs obs = Xml.to_string (to_xml ?root_attrs obs)

let save ?root_attrs ~path obs =
  Lineup_observe.Atomic_file.write ~path (to_string ?root_attrs obs)

(* ---------------- parsing ---------------- *)

let parse_observation node =
  (* op table: id -> (invocation, response option) *)
  let ops : (int, Invocation.t * Value.t option) Hashtbl.t = Hashtbl.create 16 in
  (* op id -> thread id *)
  let op_tid : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (tag, el) ->
      match tag with
      | "op" ->
        let id = int_token "op id" (Xml.attr el "id") in
        let name = Xml.attr el "name" in
        let arg =
          match Xml.attr_opt el "value" with
          | Some s -> Value.of_string s
          | None -> Value.Unit
        in
        let resp = Option.map Value.of_string (Xml.attr_opt el "result") in
        Hashtbl.replace ops id (Invocation.make ~arg name, resp)
      | "thread" ->
        let tid = tid_of_thread_label (Xml.attr el "id") in
        let tokens =
          String.split_on_char ' ' (Xml.text el) |> List.filter (fun s -> s <> "")
        in
        List.iter
          (fun tok ->
            let tok =
              if String.length tok > 0 && tok.[String.length tok - 1] = 'B' then
                String.sub tok 0 (String.length tok - 1)
              else tok
            in
            Hashtbl.replace op_tid (int_token "thread token" tok) tid)
          tokens
      | _ -> ())
    (Xml.elements node);
  let lookup id =
    match Hashtbl.find_opt ops id, Hashtbl.find_opt op_tid id with
    | Some (inv, resp), Some tid -> tid, inv, resp
    | _ -> invalid_arg (Fmt.str "Observation_file: unknown op id %d" id)
  in
  (* each <history> is a serial interleaving: "i[ ]i" pairs, optionally a
     final "i[ #" *)
  let parse_history el =
    let tokens = String.split_on_char ' ' (Xml.text el) |> List.filter (fun s -> s <> "") in
    let rec go acc = function
      | [] -> Serial_history.make (List.rev acc)
      | [ call; "#" ] when String.length call > 1 && call.[String.length call - 1] = '[' ->
        let id = int_token "history token" (String.sub call 0 (String.length call - 1)) in
        let tid, inv, _ = lookup id in
        Serial_history.make ~stuck:(Some (tid, inv)) (List.rev acc)
      | call :: ret :: rest
        when String.length call > 1
             && call.[String.length call - 1] = '['
             && String.length ret > 1
             && ret.[0] = ']' ->
        let cid = int_token "history token" (String.sub call 0 (String.length call - 1)) in
        let rid = int_token "history token" (String.sub ret 1 (String.length ret - 1)) in
        if cid <> rid then
          invalid_arg "Observation_file: history is not serial (mismatched call/return)";
        let tid, inv, resp = lookup cid in
        let resp =
          match resp with
          | Some r -> r
          | None -> invalid_arg (Fmt.str "Observation_file: op %d completes but has no result" cid)
        in
        go ({ Serial_history.tid; inv; resp } :: acc) rest
      | tok :: _ -> invalid_arg (Fmt.str "Observation_file: unexpected token %S" tok)
    in
    go [] tokens
  in
  List.filter_map
    (fun (tag, el) -> if tag = "history" then Some (parse_history el) else None)
    (Xml.elements node)

let of_xml root =
  if Xml.tag root <> "observationset" then
    invalid_arg "Observation_file: expected <observationset>";
  List.concat_map
    (fun (tag, el) -> if tag = "observation" then parse_observation el else [])
    (Xml.elements root)

let of_string s = of_xml (Xml.of_string s)

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let observation_of_histories histories =
  let obs = Observation.create () in
  let rec go = function
    | [] -> Ok obs
    | s :: rest -> (
      match Observation.add obs s with
      | Ok () -> go rest
      | Error pair -> Error pair)
  in
  go histories
