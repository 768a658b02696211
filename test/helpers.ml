(* Shared test helpers. *)

module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Event = Lineup_history.Event
module History = Lineup_history.History
module Serial_history = Lineup_history.Serial_history

let inv ?arg name = Invocation.make ?arg name
let inv_int name n = Invocation.make ~arg:(Value.int n) name

(* Compact history construction: a list of (tid, op_index, action) where the
   action is either a call or a return. *)
let call tid op_index name ?arg () = Event.call ~tid ~op_index (inv ?arg name)
let ret tid op_index v = Event.return ~tid ~op_index v

let history ?stuck events = History.make ?stuck events

(* A serial history from (tid, name, arg, resp) tuples. *)
let serial ?stuck entries =
  Serial_history.make
    ~stuck:(Option.map (fun (tid, name, arg) -> tid, Invocation.make ~arg name) stuck)
    (List.map
       (fun (tid, name, arg, resp) -> { Serial_history.tid; inv = Invocation.make ~arg name; resp })
       entries)

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let history_t : History.t Alcotest.testable = Alcotest.testable History.pp History.equal

let serial_t : Serial_history.t Alcotest.testable =
  Alcotest.testable Serial_history.pp Serial_history.equal

let test name f = Alcotest.test_case name `Quick f

(* [sub] occurs in [s] *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* [f ()] on another domain; fails the test if it has not returned within
   [secs] (a hung [f] is left behind) *)
let within secs f =
  let result = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e))) in
  let deadline = Unix.gettimeofday () +. secs in
  let rec wait () =
    match Atomic.get result with
    | Some r -> (
      Domain.join d;
      match r with Ok v -> v | Error e -> raise e)
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.failf "no answer within %.0f s" secs;
      Unix.sleepf 0.005;
      wait ()
  in
  wait ()

module Spec = Lineup_spec.Spec

let verdict : Spec.verdict Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Spec.Accept -> Fmt.string ppf "Accept"
      | Spec.Reject -> Fmt.string ppf "Reject"
      | Spec.Unsupported r -> Fmt.pf ppf "Unsupported %S" r)
    ( = )

(* Definition 3 on one history, over a decider of its queries: the history
   itself when complete (Definition 1), each H[e] when stuck (Definition 2).
   An [Unsupported] query fails the test: an oracle must decide. *)
let holds decide h =
  let v =
    if not (History.is_stuck h) then decide h
    else match Spec.first_unjustified decide h with None -> Spec.Accept | Some (_, v) -> v
  in
  match v with
  | Spec.Accept -> true
  | Spec.Reject -> false
  | Spec.Unsupported r -> Alcotest.failf "the oracle cannot decide: %s" r

(* The phase-2 observation search as a query decider. *)
let observed obs q =
  if Option.is_some (Lineup.Observation.witness obs q) then Spec.Accept else Spec.Reject

(* The distinct histories of one whole exploration under [config] (it does
   not stop at a violation, unlike [Check.run]), sorted, and its
   statistics. *)
let history_set config ~adapter ~test =
  let seen = Hashtbl.create 64 in
  let stats =
    Lineup.Harness.run_phase config ~adapter ~test ~on_history:(fun r ->
        Hashtbl.replace seen (History.events r.history, History.is_stuck r.history) ();
        `Continue)
  in
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []), stats

(* Value generator for qcheck. *)
let value_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let base =
            oneof
              [
                return Value.Unit;
                map Value.bool bool;
                map Value.int small_signed_int;
                map Value.str (string_size ~gen:printable (int_bound 8));
                return Value.Fail;
                return (Value.Opt None);
              ]
          in
          if n = 0 then base
          else
            frequency
              [
                3, base;
                1, map2 Value.pair (self (n / 2)) (self (n / 2));
                1, map Value.list (list_size (int_bound 3) (self (n / 3)));
                1, map Value.some (self (n / 2));
              ])
        n)

let value_arb = QCheck.make ~print:Value.to_string value_gen

(* ---------------- decoder fuzzing ---------------- *)

(* One random edit of [s]: cut it short, or replace, insert or delete a
   byte. Replacements and insertions favour [alphabet], the ones that matter
   to the decoder under test. *)
let mutate_gen ~alphabet s =
  let open QCheck.Gen in
  let n = String.length s in
  let byte = frequency [ 3, oneofl alphabet; 1, char ] in
  let* i = int_bound n in
  oneof
    [
      return (String.sub s 0 i);
      map
        (fun c ->
          if i < n then String.mapi (fun j x -> if j = i then c else x) s else s ^ String.make 1 c)
        byte;
      map (fun c -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)) byte;
      return (if i < n then String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1) else s);
    ]

(* one to three edits *)
let mutations_gen ~alphabet s =
  let open QCheck.Gen in
  let* k = int_range 1 3 in
  let rec go k s = if k = 0 then return s else mutate_gen ~alphabet s >>= go (k - 1) in
  go k s

(* [decode] on every generated input returns, or raises [Invalid_argument]
   as documented; any other exception fails the property *)
let decoder_total ~name ~count gen decode =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun s ->
         match decode s with _ -> true | exception Invalid_argument _ -> true))

(* ---------------- the built CLI ---------------- *)

(* The test binary runs in _build/default/test, beside ../bin, as dune
   runs it. *)
let cli = Filename.concat (Filename.concat ".." "bin") "lineup_cli.exe"

let read path = In_channel.with_open_bin path In_channel.input_all

(* [f dir] with [dir] a fresh path, not yet created, removed with all its
   contents afterwards *)
let with_temp_dir f =
  let dir = Filename.temp_file "lineup" "dir" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

(* The seconds a CLI run may take from its start; the slowest row takes
   about 6 s *)
let cli_deadline = 120.

(* [spawn_cli ?input ?metrics subcommand args] starts [lineup_cli
   SUBCOMMAND --metrics FILE ARGS...], reading the file [input] on its
   stdin if given; the function it returns waits for it and gives its exit
   code (-1 on a signal), stdout and metrics file. A run still going
   [cli_deadline] seconds after its start is killed, and fails the test.
   With [~metrics:false] it passes no [--metrics] (which [list] and
   [observe] do not take) and the metrics read as "". Runs started
   together share the cores. *)
let spawn_cli ?input ?(metrics = true) subcommand args =
  let report = Filename.temp_file "lineup-golden" ".report" in
  let metrics_file = Filename.temp_file "lineup-golden" ".json" in
  let out = Unix.openfile report [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let inp = Option.map (fun path -> Unix.openfile path [ Unix.O_RDONLY ] 0) input in
  let argv =
    cli :: subcommand :: (if metrics then "--metrics" :: metrics_file :: args else args)
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Option.iter Unix.close inp)
      (fun () ->
        Unix.create_process cli (Array.of_list argv)
          (Option.value inp ~default:Unix.stdin)
          out Unix.stderr)
  in
  let deadline = Unix.gettimeofday () +. cli_deadline in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "no exit within %.0f s: %s" cli_deadline (String.concat " " argv)
      end;
      Unix.sleepf 0.005;
      wait ()
    | _, status -> status
  in
  fun () ->
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ report; metrics_file ])
      (fun () ->
        let code =
          match wait () with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
        in
        code, read report, read metrics_file)

let run_cli ?input ?metrics subcommand args = spawn_cli ?input ?metrics subcommand args ()

(* Start every run, then wait for each, in order. *)
let run_cli_all ?metrics runs =
  List.map (fun wait -> wait ()) (List.map (fun (sub, args) -> spawn_cli ?metrics sub args) runs)
