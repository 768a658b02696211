(* The streaming monitor stack, bottom to top:

   - the NDJSON event codec ([Trace_event.render]/[parse]): qcheck round-trip
     over random events (the [arg]/[val] strings are [Value.to_string]
     images, so any value round-trips), plus the skip/blank/malformed
     line taxonomy;
   - the one-pass scanner against its oracle, the [Ndjson] tree route:
     the same [line], [Malformed] text included, on rendered events,
     random field objects and mutations of both;
   - the chunk reader: lines cut across reads, CRLF endings, blank lines,
     a line longer than the buffer and no final newline read as
     [input_line] reads them, through [Driver.run] and [Driver.replay];
   - the fast streaming engines ([Monitor.Stream]) against the Wing–Gong
     oracle on random accepting AND rejecting queue/stack histories —
     windowed GC must never change the verdict, so the property runs at
     min_batch 1 (a window per quiescent point) and 4, and at 512 with
     [flush] after random events (a followed run's pauses);
   - the same engines on long producer/consumer streams of 2–3 threads,
     honest or with one seeded defect (a value removed twice, an order
     swap, a failed remove while a value is present): min_batch 1, 4 and
     64 give the one-window verdict, which equals the checks as they were
     before a window cost only what it holds ([Monitor_reference]);
   - the chunked feasible-state engine ([Kmon]) against the Wing–Gong
     oracle on random keyed set histories and unkeyed counter histories,
     also flushed after random events;
   - windowing as a memory bound: a long bounded-occupancy stream keeps
     [resident] small, and a stream with no quiescent point inside
     [max_window] answers [Unsupported], never a wrong verdict;
   - the driver end to end over temp NDJSON files: streaming accept and
     reject verdicts, and [--replay] grouping by the [hist] tag; under
     [follow], a line cut at the end of a growing file or of a FIFO writer
     session waits for its rest; a value image out of [int] range ends
     every mode as [Unsupported], and [resident_peak] is a function of the
     stream. *)

open Helpers
module Value = Lineup_value.Value
module Event = Lineup_history.Event
module Monitor = Lineup_spec.Monitor
module Kmon = Lineup_spec.Kmon
module Lin_check = Lineup_spec.Lin_check
module Spec = Lineup_spec.Spec
module Specs = Lineup_spec.Specs
module Trace_event = Lineup_history.Trace_event
module Engine = Lineup_monitor.Engine
module Driver = Lineup_monitor.Driver
module Metrics = Lineup_observe.Metrics

let verdict : Monitor.verdict Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Monitor.Accept -> Fmt.string ppf "Accept"
      | Monitor.Reject -> Fmt.string ppf "Reject"
      | Monitor.Unsupported r -> Fmt.pf ppf "Unsupported %S" r)
    ( = )

(* ---------------- NDJSON codec ---------------- *)

let event_gen =
  let open QCheck.Gen in
  let* tid = int_bound 7 and* op_index = int_bound 99 in
  let* is_call = bool in
  if is_call then
    let* name = oneofl [ "Enqueue"; "TryDequeue"; "Add"; "weird name \"x\"\\" ] in
    let* arg = value_gen in
    return (Event.call ~tid ~op_index (inv ~arg name))
  else
    let* v = value_gen in
    return (Event.return ~tid ~op_index v)

let event_arb = QCheck.make ~print:(Fmt.to_to_string Event.pp) event_gen

let codec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"render/parse round-trips any event" ~count:500
       QCheck.(pair event_arb (option (int_bound 1000)))
       (fun (ev, hist) ->
         match Trace_event.parse (Trace_event.render ?hist ev) with
         | Trace_event.Ev { hist = h; event } -> h = hist && Event.equal event ev
         | _ -> false))

let codec_units =
  [
    test "codec: blank and whitespace lines" (fun () ->
        Alcotest.(check bool) "empty" true (Trace_event.parse "" = Trace_event.Blank);
        Alcotest.(check bool) "spaces" true (Trace_event.parse "   \t " = Trace_event.Blank));
    test "codec: non-event lines are skipped, not errors" (fun () ->
        (* a raw check --trace interleaves scheduler/pool records *)
        let skippable =
          [
            {|{"t":1.0,"ev":"monitor.tick","ops":12}|};
            {|{"t":1.0,"ev":"pool.task"}|};
            {|{"no_ev_field":true}|};
          ]
        in
        List.iter
          (fun l ->
            Alcotest.(check bool) l true (Trace_event.parse l = Trace_event.Skip))
          skippable);
    test "codec: malformed lines are malformed" (fun () ->
        let is_malformed l =
          match Trace_event.parse l with Trace_event.Malformed _ -> true | _ -> false
        in
        Alcotest.(check bool) "not json" true (is_malformed "{not json");
        Alcotest.(check bool) "no tid" true
          (is_malformed {|{"ev":"call","op":0,"name":"Enqueue"}|});
        Alcotest.(check bool) "no name" true
          (is_malformed {|{"ev":"call","tid":0,"op":0}|});
        Alcotest.(check bool) "bad value image" true
          (is_malformed {|{"ev":"ret","tid":0,"op":0,"val":"<junk>"}|}));
    test "codec: the trace emitter writes render's lines" (fun () ->
        let events =
          [ call 0 0 "Enqueue" ~arg:(Value.int 1) (); ret 0 0 Value.unit;
            call 1 0 "TryDequeue" (); ret 1 0 (Value.int 1) ]
        in
        let path = Filename.temp_file "lineup" "trace" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Lineup_observe.Trace.with_trace ~path:(Some path) (fun () ->
                List.iter (Trace_event.emit ~hist:3) events);
            (* each line without its clock: what follows [{"t":…,] *)
            let untimed l =
              let i = String.index l ',' in
              String.sub l i (String.length l - i)
            in
            Alcotest.(check (list string)) "lines"
              (List.map (fun ev -> untimed (Trace_event.render ~hist:3 ev)) events)
              (List.map untimed (String.split_on_char '\n' (String.trim (read path))))));
    test "codec: missing arg decodes as Unit" (fun () ->
        match Trace_event.parse {|{"ev":"call","tid":1,"op":2,"name":"TryPop"}|} with
        | Trace_event.Ev { event; hist } ->
          Alcotest.(check bool) "no hist" true (hist = None);
          Alcotest.(check bool) "is unit call" true
            (Event.equal event (call 1 2 "TryPop" ()))
        | _ -> Alcotest.fail "expected an event");
  ]

(* ---------------- the scanner against the Ndjson oracle ---------------- *)

(* [Trace_event.parse] before its scanner, kept as the oracle: trim, a whole
   [Ndjson] tree, field lookups, [Value.of_string]. *)
let oracle_parse s =
  let s = String.trim s in
  if s = "" then Trace_event.Blank
  else
    match Ndjson.parse s with
    | Error e -> Trace_event.Malformed e
    | Ok json -> (
      match Option.bind (Ndjson.member "ev" json) Ndjson.to_str with
      | None -> Trace_event.Skip
      | Some (("call" | "ret") as ev) -> (
        let int_field k = Option.bind (Ndjson.member k json) Ndjson.to_int in
        let str_field k = Option.bind (Ndjson.member k json) Ndjson.to_str in
        match int_field "tid", int_field "op" with
        | Some tid, Some op_index -> (
          let hist = int_field "hist" in
          try
            if ev = "call" then
              match str_field "name" with
              | None -> Trace_event.Malformed "call event without a name"
              | Some name ->
                let arg =
                  match str_field "arg" with None -> Value.Unit | Some a -> Value.of_string a
                in
                Trace_event.Ev { hist; event = Event.call ~tid ~op_index (inv ~arg name) }
            else
              match str_field "val" with
              | None -> Trace_event.Malformed "ret event without a val"
              | Some v ->
                Trace_event.Ev { hist; event = Event.return ~tid ~op_index (Value.of_string v) }
          with Invalid_argument e -> Trace_event.Malformed e)
        | _ -> Trace_event.Malformed (Printf.sprintf "%s event without tid/op" ev))
      | Some _ -> Trace_event.Skip)

(* A JSON string literal for [s], each byte spelled plainly or, at random,
   as a [\u] escape (upper or lower case hex, or with a '_' that
   [int_of_string] skips). *)
let json_literal_gen s =
  let open QCheck.Gen in
  let+ spellings = list_repeat (String.length s) (int_bound 9) in
  let buf = Buffer.create 16 in
  let escape fmt c = Buffer.add_string buf (Printf.sprintf fmt (Char.code c)) in
  Buffer.add_char buf '"';
  List.iteri
    (fun i k ->
      match s.[i], k with
      | '"', _ -> Buffer.add_string buf "\\\""
      | '\\', _ -> Buffer.add_string buf "\\\\"
      | '/', 0 -> Buffer.add_string buf "\\/"
      | '\n', _ -> Buffer.add_string buf "\\n"
      | c, 1 -> escape "\\u%04x" c
      | c, 2 -> escape "\\u%04X" c
      | c, 3 -> escape "\\u0_%02x" c
      | c, _ when Char.code c < 0x20 -> escape "\\u%04x" c
      | c, _ -> Buffer.add_char buf c)
    spellings;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* plain most of the time, so that the common paths are exercised *)
let spelled_gen s =
  QCheck.Gen.(frequency [ 4, return (Metrics.json_string s); 1, json_literal_gen s ])

let number_gen =
  let open QCheck.Gen in
  let* n = oneof [ int_bound 40; map (fun n -> -n) (int_bound 40); int ] in
  let d = string_of_int n and a = string_of_int (abs n) in
  oneofl
    [
      d; d; d ^ ".0"; d ^ "e0"; "+" ^ a; d ^ "."; "00" ^ a; d ^ ".5"; "1e2"; "1E+2"; "2.5e1"; "-0";
      "0.0e5"; ".5"; "1e400"; "-1e400"; "1e-400"; "9007199254740992"; "9007199254740993";
      "-9007199254740992"; "123456789012345"; "1234567890123456"; "12345678901234567890"; "-";
      "--1"; "-+1"; "1e"; "1e+"; "e5"; "."; "1.2.3"; "1-2"; "0x10"; "1_000"; "Infinity"; "nan";
    ]

let image_gen =
  let open QCheck.Gen in
  frequency
    [
      3, map Value.to_string value_gen;
      3,
      oneofl
        [
          "unit"; "Fail"; "true"; "false"; "0"; "-0"; "007"; "-5"; "123456789012345678";
          "-123456789012345678"; "1234567890123456789"; "4611686018427387903";
          "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
          "99999999999999999999"; "-"; ""; " 5 "; "<junk>"; "Some 5"; "None"; "(1, 2)"; "[1; 2]";
          "\"s\""; "unitx"; "5 6"; "Fa"; "\"unterminated";
        ];
    ]

(* a JSON value of any shape, small; the raw strings spell escapes that
   [json_literal_gen] does not: surrogates, '_' in odd places, bad and
   truncated [\u]s, a bad escape *)
let rec any_json_gen depth =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        oneofl [ "null"; "true"; "false"; "[]"; "{}" ];
        number_gen;
        image_gen >>= spelled_gen;
        oneofl
          [
            {|"\uD83D\uDE00"|}; {|"\uFFFF"|}; {|"\u12_3"|}; {|"\u_123"|}; {|"\u12G4"|};
            {|"\u123"|}; {|"\x"|}; {|"\u00e9\u0800"|};
          ];
      ]
  in
  if depth = 0 then leaf
  else
    let sub = any_json_gen (depth - 1) in
    let key = oneofl [ "a"; "ev"; "tid" ] >>= spelled_gen in
    frequency
      [
        3, leaf;
        1, map (fun l -> "[" ^ String.concat "," l ^ "]") (list_size (int_bound 3) sub);
        ( 1,
          map
            (fun l -> "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ v) l) ^ "}")
            (list_size (int_bound 3) (pair key sub)) );
      ]

(* a value for field [k]: mostly the right kind, sometimes not *)
let field_value_gen k =
  let open QCheck.Gen in
  let right =
    match k with
    | "ev" -> oneofl [ "call"; "ret"; "call"; "ret"; "monitor.tick"; "Call"; "" ] >>= spelled_gen
    | "tid" | "op" | "hist" -> number_gen
    | "name" ->
      oneofl [ "Enqueue"; "TryDequeue"; "weird \"x\"\\"; ""; "caf\xc3\xa9" ] >>= spelled_gen
    | "arg" | "val" -> image_gen >>= spelled_gen
    | _ -> any_json_gen 2
  in
  frequency [ 5, right; 1, any_json_gen 2 ]

let ws_gen =
  QCheck.Gen.(frequency [ 6, return ""; 2, return " "; 1, oneofl [ "\t"; "\r"; "\n"; "  " ] ])

(* an object of event fields in any order, with repeats, escaped keys,
   stray fields and random whitespace between the tokens *)
let field_object_gen =
  let open QCheck.Gen in
  let member_gen =
    let* k = oneofl [ "ev"; "tid"; "op"; "name"; "arg"; "val"; "hist"; "t"; "x"; "evx"; "e" ] in
    let* key = spelled_gen k and* v = field_value_gen k in
    let* w1 = ws_gen and* w2 = ws_gen and* w3 = ws_gen and* w4 = ws_gen in
    return (w1 ^ key ^ w2 ^ ":" ^ w3 ^ v ^ w4)
  in
  (* half the objects start from a well-formed event *)
  let* base =
    oneofl
      [
        [];
        [ {|"ev":"call"|}; {|"tid":1|}; {|"op":2|}; {|"name":"Enqueue"|} ];
        [ {|"ev":"ret"|}; {|"tid":1|}; {|"op":2|}; {|"val":"5"|} ];
      ]
  in
  let* extra = list_size (int_bound 7) member_gen in
  let* members = shuffle_l (base @ extra) in
  let* w = ws_gen in
  return ("{" ^ String.concat "," members ^ w ^ "}")

let rendered_gen =
  QCheck.Gen.(
    map3
      (fun ev hist t -> Trace_event.render ?hist ~t ev)
      event_gen (opt (int_bound 1000)) (float_bound_inclusive 100.))

(* a generic edit, or one only a line has: wrapped in [[...]], or spaces
   around it, form feed included *)
let mutate_line_gen s =
  let open QCheck.Gen in
  let spaces = oneofl [ ""; " "; "\012"; "\t\012 "; "\r" ] in
  oneof
    [
      mutate_gen
        ~alphabet:[ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; ' '; '\012'; 'e'; '-'; '0'; 'u'; '.' ]
        s;
      return ("[" ^ s ^ "]");
      map2 (fun a b -> a ^ s ^ b) spaces spaces;
    ]

let show_line = function
  | Trace_event.Malformed e -> "Malformed " ^ e
  | Trace_event.Skip -> "Skip"
  | Trace_event.Blank -> "Blank"
  | Trace_event.Ev _ -> "Ev"

let scanner_agrees ~name ~count gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun l ->
         let want = oracle_parse l and got = Trace_event.parse l in
         want = got
         || QCheck.Test.fail_reportf "oracle %s@.scanner %s" (show_line want) (show_line got)))

let scanner_props =
  let open QCheck.Gen in
  let mutated g =
    g >>= mutate_line_gen >>= fun s -> frequency [ 2, return s; 1, mutate_line_gen s ]
  in
  [
    scanner_agrees ~name:"scanner = oracle on rendered events" ~count:500 rendered_gen;
    scanner_agrees ~name:"scanner = oracle on random field objects" ~count:1500 field_object_gen;
    scanner_agrees ~name:"scanner = oracle on mutated lines" ~count:3000
      (oneof [ mutated rendered_gen; mutated field_object_gen ]);
  ]

(* ---------------- the fast path ----------------

   [Trace_event.parse_rendered] is what [parse] and the reader try first.
   It must decide every line [render] writes with scalar values, so that
   the fast path cannot silently stop firing, and agree with the oracle on
   every line it decides; anything else it hands back with [None]. *)

(* an int of 1 to [digits] digits, either sign *)
let int_digits_gen digits =
  let open QCheck.Gen in
  let* d = int_range 1 digits and* neg = bool in
  let* first = int_range 1 9 and* rest = list_repeat (d - 1) (int_bound 9) in
  let n = List.fold_left (fun acc x -> (acc * 10) + x) first rest in
  return (if neg then -n else n)

let rendered_scalar_gen =
  let open QCheck.Gen in
  let id = frequency [ 3, int_bound 99; 1, int_digits_gen 15 ] in
  let scalar =
    frequency
      [
        1, return Value.Unit;
        1, return Value.Fail;
        1, map Value.bool bool;
        2, map Value.int small_signed_int;
        2, map Value.int (int_digits_gen 18);
      ]
  in
  let* tid = id and* op_index = id and* hist = opt id and* t = float_bound_inclusive 1e6 in
  let* event =
    oneof
      [
        (let* name = oneofl [ "Enqueue"; "TryDequeue"; "Add"; "odd name 'x' {}:,"; ""; "caf\xc3\xa9" ]
         and* arg = scalar in
         return (Event.call ~tid ~op_index (inv ~arg name)));
        map (Event.return ~tid ~op_index) scalar;
      ]
  in
  return (event, hist, Trace_event.render ?hist ~t event)

(* [QCheck.Gen.generate] with a fixed seed: the lines of a row are the
   same on every run *)
let lines_of ~count gen = QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:count gen

let fast_path_units =
  [
    test "fast path: decides every line render writes with a scalar value" (fun () ->
        List.iter
          (fun (event, hist, l) ->
            match Trace_event.parse_rendered l with
            | Some (Trace_event.Ev { hist = h; event = e }) as got ->
              if not (h = hist && Event.equal e event && got = Some (oracle_parse l)) then
                Alcotest.failf "%S decodes wrong" l
            | Some _ | None -> Alcotest.failf "%S handed back" l)
          (lines_of ~count:2000 rendered_scalar_gen));
    test "fast path: wherever it decides a random or mutated line, it agrees with parse"
      (fun () ->
        let open QCheck.Gen in
        let mutated g = g >>= mutate_line_gen >>= fun s -> frequency [ 2, return s; 1, mutate_line_gen s ] in
        let plain = map (fun (_, _, l) -> l) rendered_scalar_gen in
        let decided = ref 0 in
        List.iter
          (fun l ->
            match Trace_event.parse_rendered l with
            | None -> ()
            | Some got ->
              incr decided;
              if got <> Trace_event.parse l || got <> oracle_parse l then
                Alcotest.failf "%S: the fast path and parse disagree" l)
          (lines_of ~count:1500 field_object_gen
          @ lines_of ~count:4000
              (frequency [ 3, mutated plain; 1, mutated rendered_gen; 1, mutated field_object_gen ]));
        (* the mutations that keep the shape, such as a changed digit *)
        Alcotest.(check bool) "some mutated lines are decided" true (!decided >= 50));
    test "fast path: hands back every line outside render's shape" (fun () ->
        let base = {|{"t":0.000100,"ev":"call","tid":0,"op":1,"name":"Enqueue","arg":"200"}|} in
        List.iter
          (fun l ->
            if Trace_event.parse_rendered l <> None then Alcotest.failf "%S was decided" l;
            if Trace_event.parse l <> oracle_parse l then Alcotest.failf "%S reads differently" l)
          [
            (* an escape *)
            {|{"t":0.000100,"ev":"call","tid":0,"op":1,"name":"Enq\u0075eue","arg":"200"}|};
            Trace_event.render (call 0 1 "a\"b" ());
            (* a space between the tokens *)
            {|{"t":0.000100, "ev":"call","tid":0,"op":1,"name":"Enqueue","arg":"200"}|};
            {|{"t":0.000100,"ev":"call","tid": 0,"op":1,"name":"Enqueue","arg":"200"}|};
            " " ^ base;
            (* a trailing carriage return *)
            base ^ "\r";
            (* keys reordered, or repeated *)
            {|{"t":0.000100,"ev":"call","op":1,"tid":0,"name":"Enqueue","arg":"200"}|};
            {|{"ev":"call","t":0.000100,"tid":0,"op":1,"name":"Enqueue","arg":"200"}|};
            {|{"t":0.000100,"ev":"call","tid":0,"op":1,"op":2,"name":"Enqueue","arg":"200"}|};
            {|{"t":0.000100,"ev":"call","tid":0,"op":1,"name":"Enqueue","arg":"200","arg":"3"}|};
            (* a 16-digit tid, and a tid that is not an integer literal *)
            {|{"t":0.000100,"ev":"call","tid":1234567890123456,"op":1,"name":"Enqueue"}|};
            {|{"t":0.000100,"ev":"call","tid":1e2,"op":1,"name":"Enqueue"}|};
            (* a value outside the scalar images *)
            Trace_event.render (ret 0 1 (Value.str "s"));
            Trace_event.render (ret 0 1 (Value.pair (Value.int 1) (Value.int 2)));
            Trace_event.render (ret 0 1 (Value.int max_int));
            (* a [t] the general scanner reads as malformed, and one more
               field after the event's *)
            {|{"t":nan,"ev":"ret","tid":0,"op":1,"val":"unit"}|};
            {|{"t":0.000100,"ev":"ret","tid":0,"op":1,"val":"unit","x":1}|};
            (* something after the object *)
            base ^ "}";
            base ^ "\n";
          ]);
  ]

(* ---------------- streaming engines vs the offline monitors ---------------- *)

(* same synthetic generators as test_membership.ml: random well-formed
   complete two-thread histories, with rejecting answers on purpose *)
let interleave rng ops =
  let cols = [| ref []; ref [] |] in
  List.iter (fun op -> let c = cols.(Random.State.int rng 2) in c := op :: !c) ops;
  let pending = Array.map (fun c -> ref (List.rev !c)) cols in
  let in_flight = [| None; None |] in
  let next_index = [| 0; 0 |] in
  let events = ref [] in
  let moves_left () =
    Array.exists Option.is_some in_flight || Array.exists (fun p -> !p <> []) pending
  in
  while moves_left () do
    let tid = Random.State.int rng 2 in
    match in_flight.(tid) with
    | Some resp ->
      events := ret tid next_index.(tid) resp :: !events;
      in_flight.(tid) <- None;
      next_index.(tid) <- next_index.(tid) + 1
    | None -> (
      match !(pending.(tid)) with
      | [] -> ()
      | (i, resp) :: rest ->
        events := Event.call ~tid ~op_index:next_index.(tid) i :: !events;
        in_flight.(tid) <- Some resp;
        pending.(tid) := rest)
  done;
  List.rev !events

let random_lifo_fifo_ops rng ~insert ~remove =
  let n = 2 + Random.State.int rng 5 in
  let kinds = List.init n (fun i -> i, Random.State.bool rng) in
  let inserts =
    List.filter_map (fun (i, k) -> if k then Some (100 * (i + 1)) else None) kinds
  in
  List.map
    (fun (i, k) ->
      if k then inv_int insert (100 * (i + 1)), Value.unit
      else
        let resp =
          if inserts = [] || Random.State.int rng 3 = 0 then Value.Fail
          else Value.int (List.nth inserts (Random.State.int rng (List.length inserts)))
        in
        inv remove, resp)
    kinds

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.small_signed_int

let stream_of_cls ~min_batch = function
  | Spec.Queue -> Monitor.Stream.create_queue ~min_batch ()
  | Spec.Stack -> Monitor.Stream.create_stack ~min_batch ()
  | _ -> assert false

let stream_verdict ?pauses ~cls ~min_batch events =
  let s = stream_of_cls ~min_batch cls in
  List.iter
    (fun ev ->
      Monitor.Stream.feed s ev;
      (* a followed run's producer pausing after [ev] *)
      match pauses with Some rng when Random.State.bool rng -> Monitor.Stream.flush s | _ -> ())
    events;
  Monitor.Stream.finalize s

let stream_agrees ~name ~cls ~spec ~insert ~remove =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:500 seed_arb (fun seed ->
         let rng = Random.State.make [| seed |] in
         let events = interleave rng (random_lifo_fifo_ops rng ~insert ~remove) in
         let oracle = Lin_check.decide spec (history events) in
         (* min_batch 1 windows at every quiescent point — the most GC
            pressure possible; both must equal the oracle's verdict *)
         stream_verdict ~cls ~min_batch:1 events = oracle
         && stream_verdict ~cls ~min_batch:4 events = oracle
         && stream_verdict ~pauses:rng ~cls ~min_batch:512 events = oracle))

let stream_props =
  [
    stream_agrees ~name:"queue stream agrees with the oracle at every window size"
      ~cls:Spec.Queue ~spec:Specs.queue ~insert:"Enqueue" ~remove:"TryDequeue";
    stream_agrees ~name:"stack stream agrees with the oracle at every window size"
      ~cls:Spec.Stack ~spec:Specs.stack ~insert:"Push" ~remove:"TryPop";
  ]

(* ---------------- long producer/consumer streams ---------------- *)

(* Long enough that values stay live across many windows and, with a
   defect, stack pairs are carried from window to window; too long for
   the Wing–Gong oracle, so the windows are held to one window and that
   to [Monitor_reference], the checks as they were before a window cost
   only what it holds. *)

type defect =
  | Honest
  | Removed_twice  (** one remove returns a value already removed *)
  | Order_swap  (** one remove takes the next value instead of the due one *)
  | Fail_while_present  (** one remove fails though values are present *)

let defects = [ Honest; Removed_twice; Order_swap; Fail_while_present ]

let defect_name = function
  | Honest -> "honest"
  | Removed_twice -> "removed twice"
  | Order_swap -> "order swap"
  | Fail_while_present -> "fail while present"

(* [n] operations on 2–3 threads, each taking effect at a point strictly
   between its call and its return, with the threads' steps interleaved at
   random so that operations overlap. Thread 0 mostly inserts fresh
   values, the others mostly remove; [defect] strikes once, at the first
   remove that takes effect in the second half with a value for it (for
   the swap, two values whose inserts do not overlap). *)
let pc_stream rng ~lifo ~defect n =
  let threads = 2 + Random.State.int rng 2 in
  let bag = ref [] (* the due value first *) and gone = ref [] in
  let state = Array.make threads `Idle and op_index = Array.make threads 0 in
  let started = ref 0 and next = ref 0 and struck = ref false in
  let events = ref [] and n_events = ref 0 in
  let emit e =
    events := e :: !events;
    incr n_events
  in
  (* value -> the positions of its insert's call and return; thread ->
     the position of its pending remove's call *)
  let ins_call = Hashtbl.create 64 and ins_ret = Hashtbl.create 64 in
  let rem_call = Array.make threads 0 in
  let returned_by v p = match Hashtbl.find_opt ins_ret v with Some r -> r < p | None -> false in
  let take () =
    match !bag with
    | v :: rest ->
      bag := rest;
      gone := v :: !gone;
      Value.int v
    | [] -> Value.Fail
  in
  (* thread [tid]'s remove takes effect: its response, and whether the
     defect strikes here. A swap or a failure strikes only where it is a
     violation whatever comes later: no other remove is pending, and the
     defective remove returns at once. *)
  let remove tid =
    let alone () =
      let others = ref false in
      Array.iteri (fun t s -> if t <> tid && s = `Removing then others := true) state;
      not !others
    in
    if !struck || !started <= n / 2 then take (), false
    else
      match defect, !bag, !gone with
      | Removed_twice, _, v :: _ -> Value.int v, true
      | Order_swap, d :: x :: rest, _
        when alone ()
             &&
             if lifo then returned_by x (Hashtbl.find ins_call d) && returned_by d rem_call.(tid)
             else returned_by d (Hashtbl.find ins_call x) ->
        bag := d :: rest;
        gone := x :: !gone;
        Value.int x, true
      | Fail_while_present, bag, _
        when alone () && List.exists (fun v -> returned_by v rem_call.(tid)) bag ->
        Value.Fail, true
      | _ -> take (), false
  in
  let return tid resp =
    emit (Event.return ~tid ~op_index:op_index.(tid) resp);
    op_index.(tid) <- op_index.(tid) + 1;
    state.(tid) <- `Idle
  in
  let busy () = Array.exists (fun s -> s <> `Idle) state in
  while !started < n || busy () do
    let tid = Random.State.int rng threads in
    match state.(tid) with
    | `Idle ->
      if !started < n then begin
        incr started;
        let call i = emit (Event.call ~tid ~op_index:op_index.(tid) i) in
        if Random.State.int rng 10 < if tid = 0 then 7 else 3 then begin
          incr next;
          Hashtbl.replace ins_call !next !n_events;
          call (inv_int (if lifo then "Push" else "Enqueue") !next);
          state.(tid) <- `Inserting !next
        end
        else begin
          rem_call.(tid) <- !n_events;
          call (inv (if lifo then "TryPop" else "TryDequeue"));
          state.(tid) <- `Removing
        end
      end
    | `Inserting v ->
      bag := if lifo then v :: !bag else !bag @ [ v ];
      state.(tid) <- `Inserted v
    | `Inserted v ->
      Hashtbl.replace ins_ret v !n_events;
      return tid Value.unit
    | `Removing ->
      let resp, strikes = remove tid in
      if strikes then begin
        struck := true;
        return tid resp
      end
      else state.(tid) <- `Removed resp
    | `Removed resp -> return tid resp
  done;
  List.rev !events

let long_stream seed =
  let rng = Random.State.make [| seed |] in
  let lifo = Random.State.bool rng in
  let defect = List.nth defects (Random.State.int rng (List.length defects)) in
  let events = pc_stream rng ~lifo ~defect (200 + Random.State.int rng 200) in
  lifo, defect, events

(* the whole stream in one window: no quiescent point reaches [min_batch] *)
let one_window = 1_000_000

let long_verdict ~lifo ~min_batch events =
  stream_verdict ~cls:(if lifo then Spec.Stack else Spec.Queue) ~min_batch events

let long_props =
  let show (lifo, defect, events) =
    Fmt.str "%s, %s, %d events" (if lifo then "stack" else "queue") (defect_name defect)
      (List.length events)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"long streams: every window size gives the one-window verdict"
         ~count:300 seed_arb (fun seed ->
           let ((lifo, _, events) as s) = long_stream seed in
           let whole = long_verdict ~lifo ~min_batch:one_window events in
           List.for_all
             (fun min_batch ->
               let v = long_verdict ~lifo ~min_batch events in
               v = whole
               || QCheck.Test.fail_reportf "%s: min_batch %d gives %a, one window %a" (show s)
                    min_batch (Alcotest.pp verdict) v (Alcotest.pp verdict) whole)
             [ 1; 4; 64 ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"long streams: one window agrees with the reference checks"
         ~count:300 seed_arb (fun seed ->
           let ((lifo, _, events) as s) = long_stream seed in
           let want = Monitor_reference.decide ~lifo (history events) in
           let got = long_verdict ~lifo ~min_batch:one_window events in
           want = got
           || QCheck.Test.fail_reportf "%s: reference %a, engine %a" (show s) (Alcotest.pp verdict)
                want (Alcotest.pp verdict) got));
    test "long streams: every seeded defect is caught, every honest stream passes" (fun () ->
        List.iter
          (fun defect ->
            List.iter
              (fun lifo ->
                let rejects =
                  List.length
                    (List.filter
                       (fun seed ->
                         let events =
                           pc_stream (Random.State.make [| seed |]) ~lifo ~defect 300
                         in
                         long_verdict ~lifo ~min_batch:64 events = Monitor.Reject)
                       (List.init 50 Fun.id))
                in
                Alcotest.(check int)
                  ((if lifo then "stack, " else "queue, ") ^ defect_name defect ^ ": rejects")
                  (if defect = Honest then 0 else 50)
                  rejects)
              [ false; true ])
          defects);
  ]

(* ---------------- Kmon vs the Wing–Gong oracle ---------------- *)

let random_set_ops rng =
  let n = 2 + Random.State.int rng 5 in
  List.init n (fun _ ->
      let name = List.nth [ "Add"; "Remove"; "Contains" ] (Random.State.int rng 3) in
      let key = 1 + Random.State.int rng 2 in
      inv_int name key, Value.bool (Random.State.bool rng))

let random_counter_ops rng =
  let n = 2 + Random.State.int rng 4 in
  List.init n (fun _ ->
      match Random.State.int rng 3 with
      | 0 -> inv "Inc", Value.unit
      | 1 -> inv "Get", Value.int (Random.State.int rng 3)
      | _ -> inv_int "Set" (Random.State.int rng 2), Value.unit)

let kmon_verdict ?pauses ~spec ~keyed ~chunk events =
  let k = Kmon.create spec ~keyed ~chunk ~max_window:1_048_576 in
  List.iter
    (fun ev ->
      k.Kmon.feed ev;
      match pauses with Some rng when Random.State.bool rng -> k.Kmon.flush () | _ -> ())
    events;
  k.Kmon.finalize ()

let kmon_agrees ~name ~spec ~keyed ~gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:500 seed_arb (fun seed ->
         let rng = Random.State.make [| seed |] in
         let events = interleave rng (gen rng) in
         let oracle = Lin_check.decide spec (history events) in
         (* chunk 1 closes a chunk at every quiescent point, maximally
            exercising the feasible-state propagation *)
         kmon_verdict ~spec ~keyed ~chunk:1 events = oracle
         && kmon_verdict ~spec ~keyed ~chunk:4 events = oracle
         && kmon_verdict ~pauses:rng ~spec ~keyed ~chunk:16 events = oracle))

let kmon_props =
  [
    kmon_agrees ~name:"keyed Kmon agrees with the oracle on set histories"
      ~spec:Specs.key_set ~keyed:true ~gen:random_set_ops;
    kmon_agrees ~name:"unkeyed Kmon agrees with the oracle on counter histories"
      ~spec:Specs.counter ~keyed:false ~gen:random_counter_ops;
  ]

let kmon_units =
  let feed_serial k entries =
    List.iteri
      (fun op_index (i, resp) ->
        k.Kmon.feed (Event.call ~tid:0 ~op_index i);
        k.Kmon.feed (Event.return ~tid:0 ~op_index resp))
      entries
  in
  [
    test "kmon: violation across a chunk boundary is caught" (fun () ->
        (* chunk 1: Add(1)=true closes alone; the stale Contains(1)=false
           must be rejected via the propagated feasible state *)
        let k = Kmon.create Specs.key_set ~keyed:true ~chunk:1 ~max_window:64 in
        feed_serial k
          [
            inv_int "Add" 1, Value.bool true;
            inv_int "Contains" 1, Value.bool false;
          ];
        Alcotest.check verdict "rejected" Monitor.Reject (k.Kmon.finalize ());
        Alcotest.(check bool) "two chunks" true (k.Kmon.chunks () >= 1));
    test "kmon: consistent reads across chunk boundaries accepted" (fun () ->
        let k = Kmon.create Specs.key_set ~keyed:true ~chunk:1 ~max_window:64 in
        feed_serial k
          [
            inv_int "Add" 1, Value.bool true;
            inv_int "Contains" 1, Value.bool true;
            inv_int "Remove" 1, Value.bool true;
            inv_int "Contains" 1, Value.bool false;
          ];
        Alcotest.check verdict "accepted" Monitor.Accept (k.Kmon.finalize ()));
    test "kmon: keys are independent" (fun () ->
        (* a violation on key 2 must not be masked by clean key 1 traffic *)
        let k = Kmon.create Specs.key_set ~keyed:true ~chunk:1 ~max_window:64 in
        feed_serial k
          [
            inv_int "Add" 1, Value.bool true;
            inv_int "Contains" 2, Value.bool true;
            inv_int "Contains" 1, Value.bool true;
          ];
        Alcotest.check verdict "rejected" Monitor.Reject (k.Kmon.finalize ()));
    test "kmon: no quiescent point within max_window is Unsupported" (fun () ->
        let k = Kmon.create Specs.counter ~keyed:false ~chunk:2 ~max_window:4 in
        (* five overlapping Incs: call all, then return all — no quiescent
           point until far past the window bound *)
        for i = 0 to 4 do
          k.Kmon.feed (Event.call ~tid:0 ~op_index:i (inv "Inc"))
        done;
        for i = 0 to 4 do
          k.Kmon.feed (Event.return ~tid:0 ~op_index:i Value.unit)
        done;
        (match k.Kmon.finalize () with
         | Monitor.Unsupported _ -> ()
         | v -> Alcotest.failf "expected Unsupported, got %a" (Alcotest.pp verdict) v));
  ]

(* ---------------- windowed GC: memory bound and degradation ---------------- *)

(* a deterministic bounded-occupancy producer/consumer queue stream: the
   live set never exceeds [occupancy], so windowed GC must keep resident
   state small no matter how long the stream runs *)
let bounded_stream ~n ~occupancy =
  let events = ref [] in
  let emit e = events := e :: !events in
  let bag = Queue.create () in
  let next = ref 0 in
  let op = Array.make 2 0 in
  let complete tid i resp =
    let op_index = op.(tid) in
    op.(tid) <- op_index + 1;
    emit (Event.call ~tid ~op_index i);
    emit (Event.return ~tid ~op_index resp)
  in
  for k = 1 to n do
    if Queue.length bag < occupancy && (k mod 2 = 0 || Queue.is_empty bag) then begin
      incr next;
      Queue.add !next bag;
      complete 0 (inv_int "Enqueue" !next) Value.unit
    end
    else complete 1 (inv "TryDequeue") (Value.int (Queue.pop bag))
  done;
  List.rev !events

let gc_units =
  [
    test "stream: long run keeps resident state bounded" (fun () ->
        let s = Monitor.Stream.create_queue ~min_batch:64 () in
        let peak = ref 0 in
        List.iteri
          (fun i ev ->
            Monitor.Stream.feed s ev;
            if i mod 256 = 0 then
              peak := max !peak (Monitor.Stream.resident s))
          (bounded_stream ~n:50_000 ~occupancy:8);
        Alcotest.check verdict "accepted" Monitor.Accept (Monitor.Stream.finalize s);
        Alcotest.(check bool) "many windows" true (Monitor.Stream.windows s > 50);
        (* 50k ops retained in full would be ~50000; windowing keeps the
           tracked set near the window size + live occupancy *)
        Alcotest.(check bool)
          (Printf.sprintf "resident peak %d <= 256" !peak)
          true (!peak <= 256);
        Alcotest.(check bool) "interval-compressed diets" true
          (Monitor.Stream.intervals s <= 8));
    test "stream: no quiescent point within max_window is Unsupported" (fun () ->
        let s = Monitor.Stream.create_queue ~min_batch:4 ~max_window:16 () in
        (* op (1,0) never returns, so no window can ever close *)
        Monitor.Stream.feed s (call 1 0 "TryDequeue" ());
        for i = 0 to 20 do
          Monitor.Stream.feed s (call 0 i "Enqueue" ~arg:(Value.int (i + 1)) ());
          Monitor.Stream.feed s (ret 0 i Value.unit)
        done;
        match Monitor.Stream.verdict_now s with
        | Some (Monitor.Unsupported _) -> ()
        | Some v -> Alcotest.failf "expected Unsupported, got %a" (Alcotest.pp verdict) v
        | None -> Alcotest.fail "window bound not enforced");
    test "stream: reject is sticky and survives later clean traffic" (fun () ->
        let s = Monitor.Stream.create_queue ~min_batch:1 () in
        let feed_complete i v resp_ins =
          Monitor.Stream.feed s (call 0 i "Enqueue" ~arg:(Value.int v) ());
          Monitor.Stream.feed s (ret 0 i resp_ins)
        in
        feed_complete 0 1 Value.unit;
        feed_complete 1 2 Value.unit;
        (* FIFO inversion *)
        Monitor.Stream.feed s (call 1 0 "TryDequeue" ());
        Monitor.Stream.feed s (ret 1 0 (Value.int 2));
        Monitor.Stream.feed s (call 1 1 "TryDequeue" ());
        Monitor.Stream.feed s (ret 1 1 (Value.int 1));
        Alcotest.(check bool) "decided mid-stream" true
          (Monitor.Stream.verdict_now s = Some Monitor.Reject);
        feed_complete 2 3 Value.unit;
        Alcotest.check verdict "still rejected" Monitor.Reject
          (Monitor.Stream.finalize s));
  ]

(* ---------------- the driver over NDJSON files ---------------- *)

let with_text_file text f =
  let path = Filename.temp_file "lineup_test_monitor" ".ndjson" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> In_channel.with_open_bin path f)

let lines_text lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)
let with_file lines f = with_text_file (lines_text lines) f
let queue_spec = Spec.Packed Specs.queue

let render_history ?hist events = List.map (Trace_event.render ?hist) events

let accepting_events =
  [
    call 0 0 "Enqueue" ~arg:(Value.int 1) (); ret 0 0 Value.unit;
    call 0 1 "Enqueue" ~arg:(Value.int 2) (); ret 0 1 Value.unit;
    call 1 0 "TryDequeue" (); ret 1 0 (Value.int 1);
    call 1 1 "TryDequeue" (); ret 1 1 (Value.int 2);
  ]

let rejecting_events =
  [
    call 0 0 "Enqueue" ~arg:(Value.int 1) (); ret 0 0 Value.unit;
    call 0 1 "Enqueue" ~arg:(Value.int 2) (); ret 0 1 Value.unit;
    call 1 0 "TryDequeue" (); ret 1 0 (Value.int 2);
    call 1 1 "TryDequeue" (); ret 1 1 (Value.int 1);
  ]

(* [Driver.run] under [follow] on a FIFO that each of [sessions] is written
   to by its own writer, a pause apart: a writer that closes the FIFO is an
   end of input at the reader *)
let follow_fifo sessions =
  let path = Filename.temp_file "lineup_test_monitor" ".fifo" in
  Sys.remove path;
  Unix.mkfifo path 0o600;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let writer =
    Domain.spawn (fun () ->
        List.iteri
          (fun i text ->
            (* give the reader time to meet the end of input and read on *)
            if i > 0 then Unix.sleepf 0.2;
            (* open_out_bin blocks until the reader has the FIFO open *)
            let oc = open_out_bin path in
            output_string oc text;
            close_out oc)
          sessions)
  in
  let run =
    try
      Ok
        (within 10. (fun () ->
             let ic = open_in_bin path in
             Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
             Driver.run ~spec:queue_spec
               ~opts:{ Driver.default_opts with min_batch = 1; follow = true }
               ic))
    with e -> Error e
  in
  (* A run that ended, or failed to, before the last session leaves the
     writer blocked opening the FIFO. Hold both of its ends open, so that
     every session goes through and the writer finishes. *)
  let ends =
    List.filter_map
      (fun flag ->
        try Some (Unix.openfile path [ flag; Unix.O_NONBLOCK ] 0) with Unix.Unix_error _ -> None)
      [ Unix.O_RDONLY; Unix.O_WRONLY ]
  in
  Domain.join writer;
  List.iter Unix.close ends;
  match run with Ok o -> o | Error e -> raise e

let driver_units =
  let opts = { Driver.default_opts with min_batch = 1 } in
  [
    test "driver: accepting stream" (fun () ->
        with_file (render_history accepting_events) (fun ic ->
            let o = Driver.run ~spec:queue_spec ~opts ic in
            Alcotest.check verdict "accept" Monitor.Accept o.Driver.verdict;
            Alcotest.(check int) "ops" 4 o.Driver.ops));
    test "driver: rejecting stream" (fun () ->
        with_file (render_history rejecting_events) (fun ic ->
            let o = Driver.run ~spec:queue_spec ~opts ic in
            Alcotest.check verdict "reject" Monitor.Reject o.Driver.verdict));
    test "driver: malformed line settles Unsupported" (fun () ->
        with_file [ {|{"ev":"call","tid":0|} ] (fun ic ->
            let o = Driver.run ~spec:queue_spec ~opts ic in
            match o.Driver.verdict with
            | Monitor.Unsupported _ -> ()
            | v -> Alcotest.failf "expected Unsupported, got %a" (Alcotest.pp verdict) v));
    test "driver: skippable lines and blanks are transparent" (fun () ->
        let lines =
          ({|{"ev":"scheduler.step","t":0.1}|} :: "" :: render_history accepting_events)
          @ [ {|{"ev":"pool.done"}|} ]
        in
        with_file lines (fun ic ->
            let o = Driver.run ~spec:queue_spec ~opts ic in
            Alcotest.check verdict "accept" Monitor.Accept o.Driver.verdict));
    test "replay: groups by hist tag, rejects if any history rejects" (fun () ->
        let lines =
          render_history ~hist:0 accepting_events
          @ render_history ~hist:1 rejecting_events
          @ render_history ~hist:2 accepting_events
        in
        with_file lines (fun ic ->
            let per_hist, o = Driver.replay ~spec:queue_spec ~opts ic in
            Alcotest.(check int) "three histories" 3 (List.length per_hist);
            Alcotest.check verdict "combined" Monitor.Reject o.Driver.verdict;
            Alcotest.check verdict "hist 1" Monitor.Reject
              (List.assoc (Some 1) per_hist);
            Alcotest.check verdict "hist 0" Monitor.Accept
              (List.assoc (Some 0) per_hist)));
    test "follow: reader re-arms across FIFO writer sessions" (fun () ->
        (* The first session closes its end (end of input at the reader)
           after a clean prefix; under --follow the monitor reads on instead
           of finalizing Accept, so the second session's out-of-order
           dequeues still settle Reject. The second session continues the
           same logical stream — same engine state — so it uses fresh op
           indices and values. *)
        let second_session =
          [
            call 0 2 "Enqueue" ~arg:(Value.int 3) (); ret 0 2 Value.unit;
            call 0 3 "Enqueue" ~arg:(Value.int 4) (); ret 0 3 Value.unit;
            call 1 2 "TryDequeue" (); ret 1 2 (Value.int 4);
            call 1 3 "TryDequeue" (); ret 1 3 (Value.int 3);
          ]
        in
        let o =
          follow_fifo
            [
              lines_text (render_history accepting_events);
              lines_text (render_history second_session);
            ]
        in
        Alcotest.check verdict "reject from the second session" Monitor.Reject
          o.Driver.verdict);
    test "follow: a line cut at the end of a FIFO session waits for the next" (fun () ->
        (* the first session ends inside the call of a dequeue that the
           second completes, returning a value never enqueued *)
        let o =
          follow_fifo
            [
              lines_text (render_history accepting_events) ^ {|{"ev":"call","tid":1,"op":2,"na|};
              {|me":"TryDequeue"}|} ^ "\n" ^ {|{"ev":"ret","tid":1,"op":2,"val":"7"}|} ^ "\n";
            ]
        in
        Alcotest.check verdict "reject across the cut" Monitor.Reject o.Driver.verdict);
    test "follow: a line cut at the end of a growing file waits for its rest" (fun () ->
        (* 1,000 complete operations, then the start of a dequeue's call;
           what is appended later completes that call and returns a value
           never enqueued *)
        let path = Filename.temp_file "lineup_test_monitor" ".ndjson" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (lines_text (render_history (bounded_stream ~n:1000 ~occupancy:8)));
            output_string oc {|{"ev":"call","tid":0,"op":5000,"na|});
        let appender =
          Domain.spawn (fun () ->
              (* after the reader has met the end of the file *)
              Unix.sleepf 0.2;
              Out_channel.with_open_gen [ Open_append; Open_binary ] 0o600 path (fun oc ->
                  output_string oc ({|me":"TryDequeue"}|} ^ "\n");
                  output_string oc ({|{"ev":"ret","tid":0,"op":5000,"val":"1000000"}|} ^ "\n")))
        in
        Fun.protect ~finally:(fun () ->
            Domain.join appender;
            Sys.remove path)
        @@ fun () ->
        let o =
          within 10. (fun () ->
              In_channel.with_open_bin path
                (Driver.run ~spec:queue_spec ~opts:{ Driver.default_opts with follow = true }))
        in
        Alcotest.check verdict "reject after the append" Monitor.Reject o.Driver.verdict);
    test "replay: interleaved hist tags are demultiplexed" (fun () ->
        (* events of two histories arrive interleaved, as a sharded
           checker's trace would record them *)
        let tag h evs = render_history ~hist:h evs in
        let l0 = tag 0 accepting_events and l1 = tag 1 accepting_events in
        let lines = List.concat (List.map2 (fun a b -> [ a; b ]) l0 l1) in
        with_file lines (fun ic ->
            let per_hist, o = Driver.replay ~spec:queue_spec ~opts ic in
            Alcotest.(check int) "two histories" 2 (List.length per_hist);
            Alcotest.check verdict "combined" Monitor.Accept o.Driver.verdict));
  ]

(* ---------------- the chunk reader ---------------- *)

(* A queue stream as text, with every shape the reader must split as
   [input_line] does: CRLF endings, blank and whitespace lines, skipped
   trace records, two lines longer than the reader's 64 KB buffer (one
   skipped, one an event in [render]'s shape, whose [t] has 100,000
   places), and no final newline. Each event's [hist] is its thread, so a
   replay sees two histories. *)
let awkward_text ~n =
  let b = Buffer.create (80 * n) in
  let events = Array.of_list (bounded_stream ~n ~occupancy:8) in
  let last = Array.length events - 1 in
  Array.iteri
    (fun i ev ->
      if i mod 50 = 7 then Buffer.add_string b (if i mod 100 = 7 then "\n" else " \t \r\n");
      if i mod 70 = 3 then Buffer.add_string b "{\"ev\":\"scheduler.step\",\"t\":0.5}\n";
      if i = last / 2 then
        Buffer.add_string b ("{\"ev\":\"pad\",\"x\":\"" ^ String.make 100_000 'a' ^ "\"}\n");
      let line = Trace_event.render ~hist:ev.Event.tid ev in
      let t0 = {|{"t":0.000000|} in
      if i = last / 4 then begin
        assert (String.starts_with ~prefix:t0 line);
        Buffer.add_string b ({|{"t":0.|} ^ String.make 100_000 '0');
        Buffer.add_substring b line (String.length t0) (String.length line - String.length t0)
      end
      else Buffer.add_string b line;
      if i < last then Buffer.add_string b (if i mod 3 = 0 then "\r\n" else "\n"))
    events;
  Buffer.contents b

(* [text] through a pipe, written in pieces of random sizes *)
let with_text_pipe ?(seed = 7) text f =
  let r, w = Unix.pipe ~cloexec:true () in
  let writer =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| seed |] in
        let n = String.length text in
        let rec go off =
          if off < n then begin
            let most = if Random.State.int rng 10 = 0 then 70_000 else 300 in
            let len = min (n - off) (1 + Random.State.int rng most) in
            go (off + Unix.write_substring w text off len)
          end
        in
        Fun.protect ~finally:(fun () -> Unix.close w) (fun () -> go 0))
  in
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      Domain.join writer;
      close_in_noerr ic)
    (fun () -> f ic)

let reader_lines ic =
  let r = Trace_event.reader ic in
  let acc = ref [] in
  let f l = acc := l :: !acc in
  while Trace_event.read r f do
    ()
  done;
  Trace_event.finish r f;
  List.rev !acc

let reader_units =
  let text = awkward_text ~n:3000 in
  (* what line-by-line [Trace_event.parse] of [input_line]'s lines gives *)
  let expected =
    with_text_file text (fun ic ->
        let rec go acc =
          match input_line ic with
          | l -> go (Trace_event.parse l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let events =
    List.filter_map
      (function Trace_event.Ev { hist; event } -> Some (hist, event) | _ -> None)
      expected
  in
  let opts = { Driver.default_opts with min_batch = 64 } in
  let engine_over evs =
    let e =
      Engine.create ~spec:queue_spec ~min_batch:opts.Driver.min_batch
        ~max_window:opts.Driver.max_window
    in
    List.iter (Engine.feed e) evs;
    let v = Engine.finalize e in
    v, Engine.ops e, Engine.windows e
  in
  let check_run name o =
    let v, ops, windows = engine_over (List.map snd events) in
    Alcotest.check verdict (name ^ " verdict") v o.Driver.verdict;
    Alcotest.(check int) (name ^ " ops") ops o.Driver.ops;
    Alcotest.(check int) (name ^ " windows") windows o.Driver.windows
  in
  let check_replay name (per_hist, o) =
    let hists =
      List.fold_left (fun acc (h, _) -> if List.mem h acc then acc else acc @ [ h ]) [] events
    in
    let want =
      List.map
        (fun h ->
          h, engine_over (List.filter_map (fun (h', e) -> if h' = h then Some e else None) events))
        hists
    in
    Alcotest.(check (list (pair (option int) verdict)))
      (name ^ " per history")
      (List.map (fun (h, (v, _, _)) -> h, v) want)
      per_hist;
    Alcotest.(check int) (name ^ " ops")
      (List.fold_left (fun acc (_, (_, ops, _)) -> acc + ops) 0 want)
      o.Driver.ops
  in
  let run ic = Driver.run ~spec:queue_spec ~opts ic in
  let replay ic = Driver.replay ~spec:queue_spec ~opts ic in
  [
    test "reader: lines come out as input_line reads them" (fun () ->
        Alcotest.(check bool)
          "a line longer than the buffer is in render's shape" true
          (List.exists
             (fun l -> String.length l > 65536 && Trace_event.parse_rendered l <> None)
             (String.split_on_char '\n' text));
        Alcotest.(check bool) "file" true (with_text_file text reader_lines = expected);
        Alcotest.(check bool) "pipe" true (with_text_pipe text reader_lines = expected));
    test "reader: Driver.run and replay see the same stream" (fun () ->
        check_run "file" (with_text_file text run);
        check_run "pipe" (with_text_pipe text run);
        check_replay "replay" (with_text_file text replay);
        check_replay "replay pipe" (with_text_pipe text replay));
  ]

(* a single-thread set stream over [keys] keys, answered honestly *)
let set_stream ~n ~keys =
  let rng = Random.State.make [| 42 |] in
  let present = Array.make keys false in
  List.concat
    (List.init n (fun op_index ->
         let k = Random.State.int rng keys in
         let name, resp =
           match Random.State.int rng 3 with
           | 0 ->
             let r = not present.(k) in
             present.(k) <- true;
             "Add", r
           | 1 ->
             let r = present.(k) in
             present.(k) <- false;
             "Remove", r
           | _ -> "Contains", present.(k)
         in
         [
           Event.call ~tid:0 ~op_index (inv_int name k);
           Event.return ~tid:0 ~op_index (Value.bool resp);
         ]))

let robustness_units =
  [
    test "driver: an int image out of range is Unsupported, never a hang" (fun () ->
        let lines =
          [
            Trace_event.render (call 0 0 "Enqueue" ~arg:(Value.int 1) ());
            Trace_event.render (ret 0 0 Value.unit);
            Trace_event.render (call 1 0 "TryDequeue" ());
            {|{"ev":"ret","tid":1,"op":0,"val":"99999999999999999999"}|};
          ]
        in
        let expect name v =
          match v with
          | Monitor.Unsupported r
            when String.starts_with ~prefix:"malformed input: Value.of_string: " r -> ()
          | v -> Alcotest.failf "%s: got %a" name (Alcotest.pp verdict) v
        in
        let opts = Driver.default_opts in
        let o = within 10. (fun () -> with_file lines (Driver.run ~spec:queue_spec ~opts)) in
        expect "run" o.Driver.verdict;
        let _, o = within 10. (fun () -> with_file lines (Driver.replay ~spec:queue_spec ~opts)) in
        expect "replay" o.Driver.verdict);
    test "driver: resident_peak is a function of the stream" (fun () ->
        let text = String.concat "\n" (render_history (set_stream ~n:3000 ~keys:16)) ^ "\n" in
        let peak ?(domains = 1) with_input =
          let opts = { Driver.default_opts with domains } in
          let o =
            with_input text (fun ic -> Driver.run ~spec:(Spec.Packed Specs.key_set) ~opts ic)
          in
          Alcotest.check verdict "accepted" Monitor.Accept o.Driver.verdict;
          o.Driver.resident_peak
        in
        let first = peak with_text_file in
        Alcotest.(check bool) "sampled" true (first > 0);
        Alcotest.(check int) "second run" first (peak with_text_file);
        Alcotest.(check int) "pipe" first (peak (with_text_pipe ~seed:11));
        (* a live run is one engine on the calling domain whatever -j says *)
        Alcotest.(check int) "-j 4" first (peak ~domains:4 with_text_file));
  ]

(* ---------------- engine dispatch ---------------- *)

(* The producer/consumer queue stream of bench/monitor_bench.ml's
   queue-direct lane, drawn from [rng] as it draws them: thread 0 enqueues
   contiguous values, thread 1 dequeues the oldest, or fails on an empty
   queue. *)
let bench_queue_stream rng n =
  let events = ref [] in
  let bag = Queue.create () in
  let next = ref 0 in
  let op = Array.make 2 0 in
  let complete tid i resp =
    let op_index = op.(tid) in
    op.(tid) <- op_index + 1;
    events := Event.return ~tid ~op_index resp :: Event.call ~tid ~op_index i :: !events
  in
  for _ = 1 to n do
    if Random.State.int rng 2 = 0 || (Queue.is_empty bag && Random.State.bool rng) then begin
      incr next;
      complete 0 (inv_int "Enqueue" !next) Value.unit;
      Queue.add !next bag
    end
    else if Queue.is_empty bag then complete 1 (inv "TryDequeue") Value.Fail
    else complete 1 (inv "TryDequeue") (Value.int (Queue.pop bag))
  done;
  List.rev !events

let engine_units =
  [
    test "engine: the bench's 200,000-op queue stream closes many windows" (fun () ->
        (* the lane's seed and its smoke-scale length, at the CLI's
           min_batch: windowed GC must engage *)
        let events = bench_queue_stream (Random.State.make [| 42; 0x5eed |]) 200_000 in
        let e =
          Engine.create ~spec:queue_spec ~min_batch:Engine.default_min_batch
            ~max_window:Engine.default_max_window
        in
        List.iter (Engine.feed e) events;
        Alcotest.check verdict "accepted" Monitor.Accept (Engine.finalize e);
        Alcotest.(check bool)
          (Fmt.str "%d windows" (Engine.windows e))
          true
          (Engine.windows e > 1));
    test "engine: any registered spec is monitorable" (fun () ->
        List.iter
          (fun name ->
            let spec = Option.get (Specs.find name) in
            let e = Engine.create ~spec ~min_batch:4 ~max_window:1024 in
            Alcotest.check verdict
              (name ^ " empty stream accepts")
              Monitor.Accept (Engine.finalize e))
          Specs.names);
  ]

let tests =
  List.concat
    [
      [ codec_roundtrip ];
      codec_units;
      scanner_props;
      fast_path_units;
      stream_props;
      long_props;
      kmon_props;
      kmon_units;
      gc_units;
      driver_units;
      reader_units;
      robustness_units;
      engine_units;
      [ QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"driver agrees with the offline checker"
             ~count:60 seed_arb (fun seed ->
               let rng = Random.State.make [| seed |] in
               let events =
                 interleave rng
                   (random_lifo_fifo_ops rng ~insert:"Enqueue" ~remove:"TryDequeue")
               in
               let offline = Lin_check.decide Specs.queue (history events) in
               with_file (render_history events) (fun ic ->
                   let o =
                     Driver.run ~spec:queue_spec
                       ~opts:{ Driver.default_opts with min_batch = 1 }
                       ic
                   in
                   o.Driver.verdict = offline)));
      ];
    ]
