type field =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type sink = { oc : out_channel; mutex : Mutex.t; t0 : float }

let state : sink option Atomic.t = Atomic.make None

let enabled () = Option.is_some (Atomic.get state)

let close () =
  match Atomic.get state with
  | None -> ()
  | Some s ->
    Atomic.set state None;
    Mutex.lock s.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) (fun () -> close_out s.oc)

(* Registered once, lazily: abnormal-but-orderly exits (uncaught exception,
   [exit] from a worker process) flush and close the sink even when the
   [with_trace] wrapper is not on the stack. [close] is idempotent, so the
   hook composes with an explicit close. *)
let exit_hook_installed = ref false

let enable ~path =
  close ();
  if not !exit_hook_installed then begin
    exit_hook_installed := true;
    at_exit close
  end;
  let oc = open_out path in
  Atomic.set state (Some { oc; mutex = Mutex.create (); t0 = Monotonic.now () })

(* JSON has no literal for nan/inf; "%.6f" would render them as bare words
   ("nan", "inf") and corrupt the NDJSON stream for every downstream
   parser. A non-finite measurement carries no usable magnitude anyway, so
   it degrades to [null] and the line stays machine-readable. *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6f" f else "null"

let add_field buf (k, v) =
  Buffer.add_char buf ',';
  Metrics.add_json_string buf k;
  Buffer.add_char buf ':';
  match v with
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (json_float f)
  | Str s -> Metrics.add_json_string buf s
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let line ~t ev fields =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "{\"t\":%.6f,\"ev\":" t);
  Metrics.add_json_string buf ev;
  List.iter (add_field buf) fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let emit ev fields =
  match Atomic.get state with
  | None -> ()
  | Some s ->
    let line = line ~t:(Monotonic.elapsed_since s.t0) ev fields in
    Mutex.lock s.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.mutex)
      (fun () ->
        (* The sink may have been closed (or replaced) between the load and
           the lock; dropping the event is the documented behavior. *)
        match Atomic.get state with
        | Some s' when s' == s ->
          output_string s.oc line;
          output_char s.oc '\n';
          (* Flush per event: the stream is a crash-forensics channel, so a
             killed process must leave every completed event on disk as a
             complete, parseable line — only the event being written at the
             instant of the kill may be lost. *)
          flush s.oc
        | Some _ | None -> ())

let with_trace ~path f =
  match path with
  | None -> f ()
  | Some path ->
    enable ~path;
    Fun.protect ~finally:close f
