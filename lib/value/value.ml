type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
  | Opt of t option
  | Fail

let rec equal v1 v2 =
  match v1, v2 with
  | Unit, Unit -> true
  | Bool b1, Bool b2 -> Bool.equal b1 b2
  | Int i1, Int i2 -> Int.equal i1 i2
  | Str s1, Str s2 -> String.equal s1 s2
  | Pair (a1, b1), Pair (a2, b2) -> equal a1 a2 && equal b1 b2
  | List l1, List l2 -> List.equal equal l1 l2
  | Opt o1, Opt o2 -> Option.equal equal o1 o2
  | Fail, Fail -> true
  | (Unit | Bool _ | Int _ | Str _ | Pair _ | List _ | Opt _ | Fail), _ -> false

let tag = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Pair _ -> 4
  | List _ -> 5
  | Opt _ -> 6
  | Fail -> 7

let rec compare v1 v2 =
  match v1, v2 with
  | Unit, Unit | Fail, Fail -> 0
  | Bool b1, Bool b2 -> Bool.compare b1 b2
  | Int i1, Int i2 -> Int.compare i1 i2
  | Str s1, Str s2 -> String.compare s1 s2
  | Pair (a1, b1), Pair (a2, b2) ->
    let c = compare a1 a2 in
    if c <> 0 then c else compare b1 b2
  | List l1, List l2 -> List.compare compare l1 l2
  | Opt o1, Opt o2 -> Option.compare compare o1 o2
  | (Unit | Bool _ | Int _ | Str _ | Pair _ | List _ | Opt _ | Fail), _ ->
    Int.compare (tag v1) (tag v2)

let rec hash v =
  match v with
  | Unit -> 17
  | Bool b -> if b then 23 else 29
  | Int i -> Hashtbl.hash i
  | Str s -> Hashtbl.hash s
  | Pair (a, b) -> (hash a * 31) + hash b
  | List l -> List.fold_left (fun acc x -> (acc * 37) + hash x) 41 l
  | Opt None -> 43
  | Opt (Some x) -> (hash x * 47) + 5
  | Fail -> 53

let rec pp ppf = function
  | Unit -> Fmt.string ppf "unit"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Str s -> Fmt.pf ppf "%S" s
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | List l -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") pp) l
  | Opt None -> Fmt.string ppf "None"
  | Opt (Some v) -> Fmt.pf ppf "Some %a" pp v
  | Fail -> Fmt.string ppf "Fail"

(* The scalars directly: they are most of what a trace line carries. *)
let to_string = function
  | Unit -> "unit"
  | Fail -> "Fail"
  | Bool b -> Bool.to_string b
  | Int i -> Int.to_string i
  | (Str _ | Pair _ | List _ | Opt _) as v -> Fmt.str "%a" pp v

(* Hand-rolled recursive-descent parser for the concrete syntax of [pp].
   Kept total on the image of [to_string] so observation files round-trip. *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let error msg = raise (Parse_error (Fmt.str "%s at position %d in %S" msg !pos s)) in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> error (Fmt.str "expected %C" c)
  in
  let skip_spaces () =
    while (match peek () with Some ' ' -> true | _ -> false) do
      advance ()
    done
  in
  let matches kw =
    !pos + String.length kw <= n && String.equal (String.sub s !pos (String.length kw)) kw
  in
  let eat kw = pos := !pos + String.length kw in
  let parse_int () =
    let start = !pos in
    if matches "-" then advance ();
    let digits = !pos in
    while (match peek () with Some ('0' .. '9') -> true | _ -> false) do
      advance ()
    done;
    if !pos = digits then error "expected integer";
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some i -> i
    | None -> error "integer out of range"
  in
  let parse_quoted () =
    expect '"';
    let buf = Buffer.create 8 in
    let rec loop () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some c ->
           advance ();
           let unescaped =
             match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c
           in
           Buffer.add_char buf unescaped;
           loop ()
         | None -> error "unterminated escape")
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_spaces ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '(' ->
      advance ();
      let a = parse_value () in
      skip_spaces ();
      expect ',';
      let b = parse_value () in
      skip_spaces ();
      expect ')';
      Pair (a, b)
    | Some '[' ->
      advance ();
      skip_spaces ();
      if matches "]" then begin
        advance ();
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_spaces ();
          match peek () with
          | Some ';' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> error "expected ';' or ']'"
        in
        List (elems [])
      end
    | Some '"' -> Str (parse_quoted ())
    | Some ('-' | '0' .. '9') -> Int (parse_int ())
    | Some _ ->
      if matches "unit" then (eat "unit"; Unit)
      else if matches "true" then (eat "true"; Bool true)
      else if matches "false" then (eat "false"; Bool false)
      else if matches "None" then (eat "None"; Opt None)
      else if matches "Some" then begin
        eat "Some";
        skip_spaces ();
        Opt (Some (parse_value ()))
      end
      else if matches "Fail" then (eat "Fail"; Fail)
      else error "unrecognized value"
  in
  match parse_value () with
  | v ->
    skip_spaces ();
    if !pos <> n then invalid_arg (Fmt.str "Value.of_string: trailing input in %S" s);
    v
  | exception Parse_error msg -> invalid_arg ("Value.of_string: " ^ msg)

let unit = Unit
let bool b = Bool b
let int i = Int i
let str s = Str s
let pair a b = Pair (a, b)
let list l = List l
let some v = Opt (Some v)
let none = Opt None
let ok_unit = Unit

let get_int = function
  | Int i -> i
  | v -> invalid_arg (Fmt.str "Value.get_int: %a" pp v)

let get_bool = function
  | Bool b -> b
  | v -> invalid_arg (Fmt.str "Value.get_bool: %a" pp v)

let get_pair = function
  | Pair (a, b) -> a, b
  | v -> invalid_arg (Fmt.str "Value.get_pair: %a" pp v)

let get_list = function
  | List l -> l
  | v -> invalid_arg (Fmt.str "Value.get_list: %a" pp v)

let is_fail = function Fail -> true | _ -> false
