module Value = Lineup_value.Value
module Trace = Lineup_observe.Trace

(* The trace's call/return event format: one event per line, in exactly
   the shape [lineup check --trace] emits (see README, "Event schema"), so
   a trace file replays through [lineup monitor] unmodified:

     {"t":0.000123,"ev":"call","tid":0,"op":1,"name":"Enqueue","arg":"200"}
     {"t":0.000150,"ev":"ret","tid":0,"op":1,"val":"unit"}

   [arg]/[val] are {!Value.to_string} images (the exact round-tripping
   codec); [arg] is omitted for [Unit]. The optional [hist] field tags the
   history a replayed event belongs to. Lines whose [ev] is anything else
   are skipped, so a raw check trace — which interleaves scheduler and pool
   events — is a valid monitor input. *)

type line =
  | Ev of { hist : int option; event : Event.t }
  | Skip
  | Blank
  | Malformed of string

(* The one encoder: an event's [ev] name and the fields after it, which
   [Trace.line] lays out for both [render] and [emit]. *)
let fields ?hist (event : Event.t) =
  let tail = match hist with Some h -> [ "hist", Trace.Int h ] | None -> [] in
  let ev, rest =
    match event.Event.dir with
    | Event.Call { Invocation.name; arg } ->
      let tail =
        match arg with Value.Unit -> tail | v -> ("arg", Trace.Str (Value.to_string v)) :: tail
      in
      "call", ("name", Trace.Str name) :: tail
    | Event.Return v -> "ret", ("val", Trace.Str (Value.to_string v)) :: tail
  in
  ev, ("tid", Trace.Int event.Event.tid) :: ("op", Trace.Int event.Event.op_index) :: rest

let render ?hist ?(t = 0.0) event =
  let ev, fields = fields ?hist event in
  Trace.line ~t ev fields

let emit ?hist event =
  let ev, fields = fields ?hist event in
  Trace.emit ev fields

(* ---------------- the scanner ----------------

   [general] reads any line in one pass, without building a JSON tree;
   [parse] runs it on every line that the fast path below hands back. It
   accepts exactly the lines the test suite's JSON reader ([Ndjson.parse]
   in test/) accepts after [String.trim], and fails with the same message
   at the same offset, so the two agree on every input; the tests keep
   that reader as the scanner's oracle. The whole line is validated
   first, noting where the first value of each event field starts (a
   repeated key's later values are validated and ignored, as
   [Ndjson.member] ignores them). Only those values are then decoded,
   straight into the event: nothing else is allocated. *)

exception Bad of string * int (* message, position *)

let expected_quote = Printf.sprintf "expected %C" '"'
let expected_colon = Printf.sprintf "expected %C" ':'

(* [String.trim]'s spaces: JSON's four and form feed *)
let is_trim_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let is_digit = function '0' .. '9' -> true | _ -> false

let is_num_char = function
  | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
  | _ -> false

let rec skip_ws s p n = if p < n && is_ws (String.unsafe_get s p) then skip_ws s (p + 1) n else p

let rec num_end s p n =
  if p < n && is_num_char (String.unsafe_get s p) then num_end s (p + 1) n else p

let rec digits_end s p e =
  if p < e && is_digit (String.unsafe_get s p) then digits_end s (p + 1) e else p

let rec same_from s p lit i =
  i = String.length lit
  || (String.unsafe_get s (p + i) = String.unsafe_get lit i && same_from s p lit (i + 1))

(* [s] from [p], [len] bytes long, is [lit] *)
let sub_is s p len lit = len = String.length lit && same_from s p lit 0

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The code point of the four bytes after a [\u], read as
   [int_of_string ("0x" ^ bytes)] reads them: a hex digit, then hex digits
   or '_'. -1 when it would fail. *)
let rec hex_from s acc i stop =
  if i = stop then acc
  else
    match s.[i] with
    | '_' -> hex_from s acc (i + 1) stop
    | c ->
      let d = hex_digit c in
      if d < 0 then -1 else hex_from s ((acc * 16) + d) (i + 1) stop

let u_escape s p = if hex_digit s.[p] < 0 then -1 else hex_from s 0 p (p + 4)

(* The rest of a string whose opening quote is before [p]; returns the
   position after the closing quote. *)
let rec string_body s p n =
  if p >= n then raise (Bad ("unterminated string", p))
  else
    match String.unsafe_get s p with
    | '"' -> p + 1
    | '\\' -> (
      let p = p + 1 in
      if p >= n then raise (Bad ("unterminated escape", p));
      match String.unsafe_get s p with
      | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> string_body s (p + 1) n
      | 'u' ->
        let p = p + 1 in
        if p + 4 > n then raise (Bad ("truncated \\u escape", p));
        if u_escape s p < 0 then raise (Bad ("bad \\u escape", p));
        string_body s (p + 4) n
      | c -> raise (Bad (Printf.sprintf "bad escape \\%C" c, p)))
    | _ -> string_body s (p + 1) n

let skip_string s p n =
  if p < n && String.unsafe_get s p = '"' then string_body s (p + 1) n
  else raise (Bad (expected_quote, p))

let skip_literal s p n lit =
  let l = String.length lit in
  if p + l <= n && sub_is s p l lit then p + l
  else raise (Bad (Printf.sprintf "bad literal (expected %s)" lit, p))

(* A run of [is_num_char]s is a number exactly when [float_of_string]
   takes it, which is when it is strtod's decimal form: an optional sign,
   digits with at most one '.' and at least one digit, then optionally an
   exponent with at least one digit. So "+5", ".5", "1." and "1e400"
   are numbers. *)
let valid_number s p e =
  let p = if p < e && (s.[p] = '+' || s.[p] = '-') then p + 1 else p in
  let q = digits_end s p e in
  let point = q < e && s.[q] = '.' in
  let r = if point then digits_end s (q + 1) e else q in
  let digits = if point then r - p - 1 else r - p in
  digits > 0
  && (r = e
     || (s.[r] = 'e' || s.[r] = 'E')
        &&
        let t = if r + 1 < e && (s.[r + 1] = '+' || s.[r + 1] = '-') then r + 2 else r + 1 in
        let u = digits_end s t e in
        u > t && u = e)

let skip_number s p n =
  let e = num_end s p n in
  if e = p then raise (Bad ("unexpected character", p));
  if not (valid_number s p e) then raise (Bad ("malformed number", e));
  e

(* [Ndjson.parse]'s grammar, position in, position out. *)
let rec skip_value s p n =
  let p = skip_ws s p n in
  if p >= n then raise (Bad ("unexpected end of input", p));
  match String.unsafe_get s p with
  | '{' ->
    let p = skip_ws s (p + 1) n in
    if p < n && String.unsafe_get s p = '}' then p + 1 else skip_members s p n
  | '[' ->
    let p = skip_ws s (p + 1) n in
    if p < n && String.unsafe_get s p = ']' then p + 1 else skip_elements s p n
  | '"' -> skip_string s p n
  | 't' -> skip_literal s p n "true"
  | 'f' -> skip_literal s p n "false"
  | 'n' -> skip_literal s p n "null"
  | _ -> skip_number s p n

and skip_members s p n =
  let p = skip_ws s (skip_string s (skip_ws s p n) n) n in
  if not (p < n && String.unsafe_get s p = ':') then raise (Bad (expected_colon, p));
  let p = skip_ws s (skip_value s (p + 1) n) n in
  if p < n && String.unsafe_get s p = ',' then skip_members s (p + 1) n
  else if p < n && String.unsafe_get s p = '}' then p + 1
  else raise (Bad ("expected ',' or '}'", p))

and skip_elements s p n =
  let p = skip_ws s (skip_value s p n) n in
  if p < n && String.unsafe_get s p = ',' then skip_elements s (p + 1) n
  else if p < n && String.unsafe_get s p = ']' then p + 1
  else raise (Bad ("expected ',' or ']'", p))

(* ---- decoding a validated value ---- *)

(* The closing quote of a valid string, scanning from after its opening
   quote. *)
let rec close_quote s p =
  match String.unsafe_get s p with
  | '"' -> p
  | '\\' -> close_quote s (p + 2)
  | _ -> close_quote s (p + 1)

let rec escape_free s a b = a >= b || (String.unsafe_get s a <> '\\' && escape_free s (a + 1) b)

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

(* The contents of a valid string with escapes, between its quotes. *)
let unescape s a b =
  let buf = Buffer.create (b - a) in
  let rec go i =
    if i < b then
      match s.[i] with
      | '\\' -> (
        match s.[i + 1] with
        | 'u' ->
          utf8_add buf (u_escape s (i + 2));
          go (i + 6)
        | c ->
          Buffer.add_char buf
            (match c with
             | 'b' -> '\b'
             | 'f' -> '\012'
             | 'n' -> '\n'
             | 'r' -> '\r'
             | 't' -> '\t'
             | c -> c);
          go (i + 2))
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go a;
  Buffer.contents buf

(* The string value whose opening quote is at [p]. *)
let string_at s p =
  let a = p + 1 in
  let b = close_quote s a in
  if escape_free s a b then String.sub s a (b - a) else unescape s a b

let string_is s p lit =
  let a = p + 1 in
  let b = close_quote s a in
  if escape_free s a b then sub_is s a (b - a) lit else String.equal (unescape s a b) lit

let no_int = min_int

(* [v] followed by the digits from [i] to [b], or [no_int] at a
   non-digit. *)
let rec digits_value s v i b =
  if i = b then v
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits_value s ((v * 10) + Char.code c - Char.code '0') (i + 1) b
    | _ -> no_int

(* [-?D{1,max_digits}] spanning exactly [a, b), or [no_int]; [max_digits]
   is at most 18, so a value never reads as [no_int]. *)
let small_int s a b ~max_digits =
  let neg = a < b && String.unsafe_get s a = '-' in
  let d = if neg then a + 1 else a in
  if b - d < 1 || b - d > max_digits then no_int
  else
    let v = digits_value s 0 d b in
    if neg && v <> no_int then -v else v

(* The value at [p] as [Ndjson.to_int] reads it: an integral number of
   magnitude at most 2^53, else [no_int]. Up to 15 digits is exact as an
   int; anything else goes through the float, as [Ndjson] does. *)
let int_at s p n =
  if p < 0 then no_int
  else
    match s.[p] with
    | '"' | '{' | '[' | 't' | 'f' | 'n' -> no_int
    | _ -> (
      let e = num_end s p n in
      let i = small_int s p e ~max_digits:15 in
      if i <> no_int then i
      else
        match float_of_string_opt (String.sub s p (e - p)) with
        | Some f when Float.is_integer f && Float.abs f <= 0x1p53 -> int_of_float f
        | _ -> no_int)

(* The escape-free [Value] image between [a] and [b]: [unit], [Fail], the
   booleans and ints of at most 18 digits in place, any other through
   [other]. *)
let plain_value s a b other =
  let len = b - a in
  if sub_is s a len "unit" then Value.Unit
  else if sub_is s a len "Fail" then Value.Fail
  else if sub_is s a len "true" then Value.Bool true
  else if sub_is s a len "false" then Value.Bool false
  else
    let i = small_int s a b ~max_digits:18 in
    if i <> no_int then Value.Int i else other s a b

let of_image s a b = Value.of_string (String.sub s a (b - a))

(* The [Value] image in the string at [p]: the common ones in place, any
   other through [Value.of_string]. Raises [Invalid_argument]. *)
let value_at s p =
  let a = p + 1 in
  let b = close_quote s a in
  if escape_free s a b then plain_value s a b of_image else Value.of_string (unescape s a b)

let is_string s p = p >= 0 && s.[p] = '"'

let decode s n ~ev ~tid ~op ~name ~arg ~vl ~hist =
  if not (is_string s ev) then Skip
  else
    let call = string_is s ev "call" in
    if not (call || string_is s ev "ret") then Skip
    else
      let tid = int_at s tid n and op_index = int_at s op n in
      if tid = no_int || op_index = no_int then
        Malformed (if call then "call event without tid/op" else "ret event without tid/op")
      else
        let hist =
          let h = int_at s hist n in
          if h = no_int then None else Some h
        in
        try
          if call then
            if not (is_string s name) then Malformed "call event without a name"
            else
              let name = string_at s name in
              let arg = if is_string s arg then value_at s arg else Value.Unit in
              Ev
                { hist;
                  event = { Event.tid; op_index; dir = Event.Call { Invocation.name; arg } };
                }
          else if not (is_string s vl) then Malformed "ret event without a val"
          else Ev { hist; event = { Event.tid; op_index; dir = Event.Return (value_at s vl) } }
        with Invalid_argument e -> Malformed e

let key_slot s a len =
  if sub_is s a len "ev" then 0
  else if sub_is s a len "tid" then 1
  else if sub_is s a len "op" then 2
  else if sub_is s a len "name" then 3
  else if sub_is s a len "arg" then 4
  else if sub_is s a len "val" then 5
  else if sub_is s a len "hist" then 6
  else -1

(* The field a key names; [k] is its opening quote, [k_end] is after its
   closing one. A key spelled with escapes is the key it decodes to. *)
let field_of_key s k k_end =
  let a = k + 1 and b = k_end - 1 in
  if escape_free s a b then key_slot s a (b - a)
  else
    let key = unescape s a b in
    key_slot key 0 (String.length key)

let malformed msg offset = Malformed (Printf.sprintf "%s at offset %d" msg offset)

(* The line in [s] from [lo] to [hi], without its newline, read by the
   general scanner. *)
let general s lo hi =
  let base = ref lo and n = ref hi in
  while !base < !n && is_trim_space (String.unsafe_get s !base) do
    incr base
  done;
  while !n > !base && is_trim_space (String.unsafe_get s (!n - 1)) do
    decr n
  done;
  let base = !base and n = !n in
  if base = n then Blank
  else if String.unsafe_get s base <> '{' then
    (* valid JSON that is not an object is not an event *)
    match skip_ws s (skip_value s base n) n with
    | p -> if p <> n then malformed "trailing characters" (p - base) else Skip
    | exception Bad (msg, p) -> malformed msg (p - base)
  else begin
    let ev = ref (-1) and tid = ref (-1) and op = ref (-1) and name = ref (-1) in
    let arg = ref (-1) and vl = ref (-1) and hist = ref (-1) in
    match
      (* [skip_members] on the outer object, noting each field's value *)
      let p = ref (skip_ws s (base + 1) n) in
      if !p < n && String.unsafe_get s !p = '}' then incr p
      else begin
        let more = ref true in
        while !more do
          let k = skip_ws s !p n in
          let k_end = skip_string s k n in
          let q = skip_ws s k_end n in
          if not (q < n && String.unsafe_get s q = ':') then raise (Bad (expected_colon, q));
          let v = skip_ws s (q + 1) n in
          (* the first occurrence of a key wins *)
          (match field_of_key s k k_end with
           | 0 -> if !ev < 0 then ev := v
           | 1 -> if !tid < 0 then tid := v
           | 2 -> if !op < 0 then op := v
           | 3 -> if !name < 0 then name := v
           | 4 -> if !arg < 0 then arg := v
           | 5 -> if !vl < 0 then vl := v
           | 6 -> if !hist < 0 then hist := v
           | _ -> ());
          let q = skip_ws s (skip_value s v n) n in
          if q < n && String.unsafe_get s q = ',' then p := q + 1
          else if q < n && String.unsafe_get s q = '}' then begin
            p := q + 1;
            more := false
          end
          else raise (Bad ("expected ',' or '}'", q))
        done
      end;
      skip_ws s !p n
    with
    | p when p <> n -> malformed "trailing characters" (p - base)
    | _ -> decode s n ~ev:!ev ~tid:!tid ~op:!op ~name:!name ~arg:!arg ~vl:!vl ~hist:!hist
    | exception Bad (msg, p) -> malformed msg (p - base)
  end

(* ---------------- the fast path ----------------

   Nearly every line a monitor reads was written by [render] or [emit], in
   one of two fixed shapes:

     {"t":NUM,"ev":"call","tid":INT,"op":INT,"name":"…"[,"arg":"…"][,"hist":INT]}
     {"t":NUM,"ev":"ret","tid":INT,"op":INT,"val":"…"[,"hist":INT]}

   [rendered] reads those shapes in one pass and decodes them in place. It
   decides a line only where [general] decodes it identically: nothing
   before the opening brace, no whitespace between the tokens and no
   backslash or newline in a string, so every key is plain and appears
   once; a [t] that [valid_number] accepts; [tid], [op] and [hist] of at
   most 15 digits, which [int_at] reads exactly; and as values only the
   images [value_at] reads in place: [unit], [Fail], [true], [false] and
   ints of at most 18 digits. At the first byte that deviates it raises
   [Back], and the caller reads the line again from its start with
   [general]. It reads no byte past the closing brace, and sets [next] to
   the position after it: the caller decides whether the line ends there.
   The reader runs it on a line that starts in a read up to the end of its
   buffer and checks for the newline itself, so a rendered line is read in
   one pass, newline search included. *)

exception Back

let back () = raise_notrace Back

external get32 : string -> int -> int32 = "%caml_string_get32"
external get64 : string -> int -> int64 = "%caml_string_get64"

(* Whether [lit], 4 to 16 bytes long, is at [p], compared in two words
   that may overlap. *)
let has s p hi lit =
  let l = String.length lit in
  p + l <= hi
  &&
  if l >= 8 then get64 s p = get64 lit 0 && get64 s (p + l - 8) = get64 lit (l - 8)
  else get32 s p = get32 lit 0 && get32 s (p + l - 4) = get32 lit (l - 4)

(* The position after [lit] at [p], or [Back]. *)
let expect s p hi lit = if has s p hi lit then p + String.length lit else back ()

(* The end of the digits, after an optional '-', at [p]. *)
let int_end s p hi = digits_end s (if p < hi && String.unsafe_get s p = '-' then p + 1 else p) hi

(* The [-?D{1,15}] spanning exactly [a, e), read as [int_at] reads it,
   or [Back]. *)
let int_in s a e =
  let i = small_int s a e ~max_digits:15 in
  if i = no_int then back () else i

(* The closing quote of the string body from [p], or [Back] at a
   backslash, a newline or [hi]. *)
let rec plain_quote s p hi =
  if p >= hi then back ()
  else
    match String.unsafe_get s p with
    | '"' -> p
    | '\\' | '\n' -> back ()
    | _ -> plain_quote s (p + 1) hi

(* A value image that [value_at] would read through [Value.of_string] *)
let other_image _ _ _ = back ()

(* The optional [hist] from [p], then the closing brace. *)
let hist_end s p hi next =
  if p < hi && String.unsafe_get s p = '}' then begin
    next := p + 1;
    None
  end
  else
    let a = expect s p hi {|,"hist":|} in
    let e = int_end s a hi in
    let h = int_in s a e in
    if e < hi && String.unsafe_get s e = '}' then begin
      next := e + 1;
      Some h
    end
    else back ()

let call ~tid ~op_index ~name ~arg hist =
  Ev { hist; event = { Event.tid; op_index; dir = Event.Call { Invocation.name; arg } } }

let rendered s lo hi next =
  let t = expect s lo hi {|{"t":|} in
  let p = num_end s t hi in
  if not (valid_number s t p) then back ();
  let p = expect s p hi {|,"ev":"|} in
  let is_call = p < hi && String.unsafe_get s p = 'c' in
  let a = expect s p hi (if is_call then {|call","tid":|} else {|ret","tid":|}) in
  let e = int_end s a hi in
  let tid = int_in s a e in
  let a = expect s e hi {|,"op":|} in
  let e = int_end s a hi in
  let op_index = int_in s a e in
  if is_call then
    let a = expect s e hi {|,"name":"|} in
    let b = plain_quote s a hi in
    let name = String.sub s a (b - a) in
    if has s (b + 1) hi {|,"arg":"|} then
      let a = b + 9 in
      let b = plain_quote s a hi in
      call ~tid ~op_index ~name ~arg:(plain_value s a b other_image) (hist_end s (b + 1) hi next)
    else call ~tid ~op_index ~name ~arg:Value.Unit (hist_end s (b + 1) hi next)
  else
    let a = expect s e hi {|,"val":"|} in
    let b = plain_quote s a hi in
    let v = plain_value s a b other_image in
    Ev { hist = hist_end s (b + 1) hi next; event = { Event.tid; op_index; dir = Event.Return v } }

(* [rendered]'s line in [s] from [lo], if it ends at [hi]; else [Back]. *)
let whole s lo hi =
  let next = ref hi in
  let l = rendered s lo hi next in
  if !next = hi then l else back ()

(* The line in [s] from [lo] to [hi], without its newline. *)
let scan s lo hi = try whole s lo hi with Back -> general s lo hi

let parse s = scan s 0 (String.length s)
let parse_rendered s = try Some (whole s 0 (String.length s)) with Back -> None

(* ---------------- the chunk reader ---------------- *)

type reader = {
  ic : in_channel;
  mutable buf : Bytes.t;
  mutable start : int; (* the partial line carried to the next read *)
  mutable stop : int; (* end of the bytes read *)
  next : int ref; (* [rendered]'s end of line *)
}

let reader ic = { ic; buf = Bytes.create 65536; start = 0; stop = 0; next = ref 0 }

let rec newline_from s p stop =
  if p < stop && String.unsafe_get s p <> '\n' then newline_from s (p + 1) stop else p

let read r f =
  if r.start > 0 then begin
    Bytes.blit r.buf r.start r.buf 0 (r.stop - r.start);
    r.stop <- r.stop - r.start;
    r.start <- 0
  end;
  if r.stop = Bytes.length r.buf then begin
    (* one line fills the buffer *)
    let b = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 b 0 r.stop;
    r.buf <- b
  end;
  let got = In_channel.input r.ic r.buf r.stop (Bytes.length r.buf - r.stop) in
  (* at end of input a line without its newline stays, for a later read
     to continue or for [finish] to end *)
  if got = 0 then false
  else begin
    (* the scanner copies out whatever it keeps, so it reads the buffer in place *)
    let s = Bytes.unsafe_to_string r.buf in
    let stop = r.stop + got and next = r.next in
    (* A line that starts in this read is tried by [rendered], which finds
       where a rendered line ends in the same pass; a line it hands back is
       found by its newline and read by [general]. The line carried from
       the last read holds no newline in its [r.stop] bytes, so its newline
       is searched for after them and [scan] reads it once it is whole: a
       long line costs its length, however many reads it takes. *)
    let rec lines start =
      match rendered s start stop next with
      | l when !next < stop && String.unsafe_get s !next = '\n' ->
        f l;
        lines (!next + 1)
      | _ | (exception Back) -> to_newline start start general
    and to_newline start p read_line =
      let nl = newline_from s p stop in
      if nl = stop then start
      else begin
        f (read_line s start nl);
        lines (nl + 1)
      end
    in
    r.start <- (if r.stop > 0 then to_newline 0 r.stop scan else lines 0);
    r.stop <- stop;
    true
  end

let finish r f =
  if r.stop > r.start then f (scan (Bytes.unsafe_to_string r.buf) r.start r.stop);
  r.start <- 0;
  r.stop <- 0
