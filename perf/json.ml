(* A minimal JSON reader and writer: enough for BENCHMARK.json, the
   result lines the benchmark prints, and the files [compare] reads. The
   repository has no JSON dependency, and the benchmark adds none. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | '"' | '\\' | '/' -> Buffer.add_char b e
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 > n then fail "bad \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           Buffer.add_utf_8_uchar b (Uchar.of_int code)
         | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (
        incr pos;
        Obj [])
      else
        let rec members acc =
          let k = string_lit () in
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            skip_ws ();
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (
        incr pos;
        Arr [])
      else
        let rec elems acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            elems (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

let parse_opt s = match parse s with v -> Some v | exception Error _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_string = function Str s -> s | _ -> raise (Error "expected a string")
let to_float = function Num f -> f | _ -> raise (Error "expected a number")

(* Writing: every float keeps all its digits ([%.17g]), and non-finite
   values — which JSON cannot carry — become null. *)
let float_lit f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let string_lit s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (float_lit f)
  | Str s -> Buffer.add_string b (string_lit s)
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (string_lit k);
        Buffer.add_string b ": ";
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string_compact v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* One member per line, two spaces per level; objects whose members are
   all scalars stay on one line. *)
let to_string_pretty v =
  let b = Buffer.create 4096 in
  let scalar = function Obj _ | Arr _ -> false | _ -> true in
  let rec go indent = function
    | Obj kvs when kvs <> [] && not (List.for_all (fun (_, v) -> scalar v) kvs) ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad;
          Buffer.add_string b (string_lit k);
          Buffer.add_string b ": ";
          go (indent + 2) v)
        kvs;
      Buffer.add_string b ("\n" ^ String.make indent ' ' ^ "}")
    | v -> to_buffer b v
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b
