type t = (string, int) Hashtbl.t

let create () : t = Hashtbl.create 64

let add (t : t) key n =
  match Hashtbl.find_opt t key with
  | Some v -> Hashtbl.replace t key (v + n)
  | None -> Hashtbl.replace t key n

let incr t key = add t key 1
let get (t : t) key = Option.value ~default:0 (Hashtbl.find_opt t key)

let merge_into ~into (t : t) = Hashtbl.iter (fun k v -> add into k v) t

let to_assoc (t : t) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)

(* Counter keys are dotted identifiers ([a-z0-9._-]); escaping covers the
   general case anyway so a stray key can never corrupt the document. *)
let add_json_string buf s =
  Buffer.add_char buf '"';
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_json_string buf s;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"lineup-metrics/7\",\n  \"counters\": {";
  let counters = to_assoc t in
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n    %s: %d" (json_string k) v))
    counters;
  if counters <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "}\n}\n";
  Buffer.contents buf

let write_file t ~path = Atomic_file.write ~path (to_json t)
