module Spec = Lineup_spec.Spec
module Monitor = Lineup_spec.Monitor
module Kmon = Lineup_spec.Kmon

(* One checking engine for one stream: a live run, or one replayed
   history. Queues and stacks get the near-linear decrease-and-conquer
   engines ({!Monitor.Stream}); every other class gets the chunked
   feasible-state engine ({!Kmon}) — keyed (per-integer-key feasible
   states, P-compositional) for sets and dictionaries, single-key for
   counters/registers/anything else. An engine is fed every operation of
   its stream, so its [Accept] decides the whole history. *)

type t =
  | Fast of Monitor.Stream.t
  | Chunked of Kmon.t

(* [chunk] for the Kmon engines: small, because each chunk pays a
   Wing–Gong exploration; the 62-op bitmask is the hard ceiling. *)
let default_chunk = 16

let default_min_batch = 512
let default_max_window = 1_048_576

let create ~(spec : Spec.packed) ~min_batch ~max_window =
  let (Spec.Packed s) = spec in
  match s.Spec.cls with
  | Spec.Queue -> Fast (Monitor.Stream.create_queue ~min_batch ~max_window ())
  | Spec.Stack -> Fast (Monitor.Stream.create_stack ~min_batch ~max_window ())
  | Spec.Set | Spec.Dictionary ->
    Chunked (Kmon.create_packed spec ~keyed:true ~chunk:default_chunk ~max_window)
  | Spec.Counter | Spec.Other ->
    Chunked (Kmon.create_packed spec ~keyed:false ~chunk:default_chunk ~max_window)

let feed t ev =
  match t with
  | Fast s -> Monitor.Stream.feed s ev
  | Chunked k -> k.Kmon.feed ev

let flush = function
  | Fast s -> Monitor.Stream.flush s
  | Chunked k -> k.Kmon.flush ()

let verdict_now = function
  | Fast s -> Monitor.Stream.verdict_now s
  | Chunked k -> k.Kmon.verdict_now ()

let finalize = function
  | Fast s -> Monitor.Stream.finalize s
  | Chunked k -> k.Kmon.finalize ()

let ops = function
  | Fast s -> Monitor.Stream.ops s
  | Chunked k -> k.Kmon.ops ()

let windows = function
  | Fast s -> Monitor.Stream.windows s
  | Chunked k -> k.Kmon.chunks ()

let resident = function
  | Fast s -> Monitor.Stream.resident s + Monitor.Stream.intervals s
  | Chunked k -> k.Kmon.resident ()
