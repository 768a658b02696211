(* A minimal recursive-descent JSON parser, one line, one document: the
   test suite's oracle for the trace codec's one-pass scanner
   ([Lineup_history.Trace_event.parse]) and its reader of trace lines,
   metrics summaries and shard stats. Kept dependency-free on purpose, so
   the suite pulls no JSON package into the build. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string * int

let utf8_add buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "bad literal (expected %s)" lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
          incr pos;
          Buffer.contents b
        | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
           | '"' -> Buffer.add_char b '"'; incr pos
           | '\\' -> Buffer.add_char b '\\'; incr pos
           | '/' -> Buffer.add_char b '/'; incr pos
           | 'b' -> Buffer.add_char b '\b'; incr pos
           | 'f' -> Buffer.add_char b '\012'; incr pos
           | 'n' -> Buffer.add_char b '\n'; incr pos
           | 'r' -> Buffer.add_char b '\r'; incr pos
           | 't' -> Buffer.add_char b '\t'; incr pos
           | 'u' ->
             incr pos;
             if !pos + 4 > n then fail "truncated \\u escape";
             (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | None -> fail "bad \\u escape"
              | Some cp ->
                pos := !pos + 4;
                utf8_add b cp)
           | c -> fail (Printf.sprintf "bad escape \\%C" c));
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements (v :: acc)
          | Some ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ ->
      let start = !pos in
      if peek () = Some '-' then incr pos;
      let is_num c =
        (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-'
      in
      while !pos < n && is_num s.[!pos] do
        incr pos
      done;
      if !pos = start then fail "unexpected character";
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f -> Num f
       | None -> fail "malformed number")
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

(* JSON has one number type; an "integer" is a [Num] with an integral value
   small enough for an OCaml int to hold exactly. *)
let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 2. ** 53. -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
