module Value = Lineup_value.Value
module Event = Lineup_history.Event
module Invocation = Lineup_history.Invocation
module Metrics = Lineup_observe.Metrics
module Trace = Lineup_observe.Trace

(* The NDJSON event codec: one call or return event per line, in exactly
   the shape [lineup check --trace] emits (see README, "Trace schema"), so
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

let render ?hist ?(t = 0.0) (event : Event.t) =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "{\"t\":%.6f,\"ev\":" t);
  (match event.Event.dir with
   | Event.Call inv ->
     Buffer.add_string b
       (Printf.sprintf "\"call\",\"tid\":%d,\"op\":%d,\"name\":%s" event.Event.tid
          event.Event.op_index
          (Metrics.json_string inv.Invocation.name));
     (match inv.Invocation.arg with
      | Value.Unit -> ()
      | arg ->
        Buffer.add_string b
          (Printf.sprintf ",\"arg\":%s" (Metrics.json_string (Value.to_string arg))))
   | Event.Return v ->
     Buffer.add_string b
       (Printf.sprintf "\"ret\",\"tid\":%d,\"op\":%d,\"val\":%s" event.Event.tid
          event.Event.op_index
          (Metrics.json_string (Value.to_string v))));
  (match hist with
   | Some h -> Buffer.add_string b (Printf.sprintf ",\"hist\":%d" h)
   | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

(* ---------------- the scanner ----------------

   [parse] reads a line in one pass, without building a JSON tree. It
   accepts exactly the lines [Ndjson.parse] accepts after [String.trim],
   and fails with the same message at the same offset, so the two agree on
   every input; the test suite keeps the [Ndjson] route as its oracle. The
   whole line is validated first, noting where the first value of each
   event field starts (a repeated key's later values are validated and
   ignored, as [Ndjson.member] ignores them). Only those values are then
   decoded, straight into the event: on the common path nothing else is
   allocated. *)

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

(* [-?D{1,max_digits}] spanning exactly [a, b), or [no_int]. *)
let small_int s a b ~max_digits =
  let neg = a < b && s.[a] = '-' in
  let d = if neg then a + 1 else a in
  if b - d < 1 || b - d > max_digits || digits_end s d b <> b then no_int
  else begin
    let v = ref 0 in
    for i = d to b - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get s i) - Char.code '0')
    done;
    if neg then - !v else !v
  end

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

(* The [Value] image in the string at [p]: the common ones in place, any
   other through [Value.of_string]. Raises [Invalid_argument]. *)
let value_at s p =
  let a = p + 1 in
  let b = close_quote s a in
  if not (escape_free s a b) then Value.of_string (unescape s a b)
  else
    let len = b - a in
    if sub_is s a len "unit" then Value.Unit
    else if sub_is s a len "Fail" then Value.Fail
    else if sub_is s a len "true" then Value.Bool true
    else if sub_is s a len "false" then Value.Bool false
    else
      let i = small_int s a b ~max_digits:18 in
      if i <> no_int then Value.Int i else Value.of_string (String.sub s a len)

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

(* The line in [s] from [lo] to [hi], without its newline. *)
let scan s lo hi =
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

let parse s = scan s 0 (String.length s)

(* Emission into the live [Trace] sink — the producer side of the codec,
   used by [lineup check --trace] so its trace files are monitor inputs.
   Field layout must match [render] (which the round-trip test enforces
   for [render]/[parse]; the trace-shape test covers this path). *)
let emit_trace ?hist (event : Event.t) =
  let hist_field = match hist with Some h -> [ "hist", Trace.Int h ] | None -> [] in
  match event.Event.dir with
  | Event.Call inv ->
    Trace.emit "call"
      ([ "tid", Trace.Int event.Event.tid;
         "op", Trace.Int event.Event.op_index;
         "name", Trace.Str inv.Invocation.name;
       ]
      @ (match inv.Invocation.arg with
        | Value.Unit -> []
        | arg -> [ "arg", Trace.Str (Value.to_string arg) ])
      @ hist_field)
  | Event.Return v ->
    Trace.emit "ret"
      ([ "tid", Trace.Int event.Event.tid;
         "op", Trace.Int event.Event.op_index;
         "val", Trace.Str (Value.to_string v);
       ]
      @ hist_field)

(* ---------------- the chunk reader ---------------- *)

type reader = {
  ic : in_channel;
  mutable buf : Bytes.t;
  mutable start : int; (* the partial line carried to the next read *)
  mutable stop : int; (* end of the bytes read *)
}

let reader ic = { ic; buf = Bytes.create 65536; start = 0; stop = 0 }

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
  (* the scanner copies out whatever it keeps, so it reads the buffer in place *)
  let s = Bytes.unsafe_to_string r.buf in
  if got = 0 then begin
    (* end of input: a last line without its newline is still a line *)
    if r.stop > 0 then f (scan s 0 r.stop);
    r.stop <- 0;
    false
  end
  else begin
    let stop = r.stop + got in
    (* the carried bytes hold no newline *)
    let rec lines start p =
      let nl = newline_from s p stop in
      if nl = stop then start
      else begin
        f (scan s start nl);
        lines (nl + 1) (nl + 1)
      end
    in
    r.start <- lines 0 r.stop;
    r.stop <- stop;
    true
  end
