(* Version 2: [Explore.stats] inside a marshaled [Result] partition lost
   [exact_bound_skips], so a version-1 peer would misread every later
   field. Version 3: every payload is sealed behind its digest
   ({!Sealed}). Version 4: the length prefix is followed by its complement,
   and a [Result] partition's Line-Up state lost its [membership_direct]
   counter. Version 5: that state lost three more counters, and every
   header starts with the wire version, so a frame of another version
   reads as [None] instead of being unmarshaled as the wrong type; [Hello]
   no longer carries the version. *)
let wire_version = 5

(* Backstop against a corrupted or misaligned length prefix: no legitimate
   message (the largest is [Init] with an observation file) approaches this. *)
let max_payload = 1 lsl 28

type init = {
  i_fingerprint : string;
  i_config : Lineup.Check.config;
  i_adapter : string;
  i_test : Lineup.Test_matrix.t;
  i_observation : string;
}

type to_server =
  | Hello
  | Result of { index : int; part : Lineup.Check.p2_partition }
  | Failed of { index : int; message : string }

type to_worker =
  | Init of init
  | Task of { index : int; prefix : string }
  | Shutdown

(* OCaml delivers signals by interrupting blocking syscalls, so any signal
   landing mid-frame (SIGCHLD from a finished worker, a profiler's SIGPROF,
   an operator's SIGHUP) makes [Unix.read]/[Unix.write] raise [EINTR].
   Without the retry, [recv_*]'s blanket [Unix_error] handler turned that
   into a spurious EOF and killed the server/worker mid-protocol. *)
let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* [Unix.single_write], not [Unix.write]: [Unix.write] loops over
   64 KB chunks and raises [EINTR] even after some of them went out, so
   retrying it resent those bytes and desynchronized the stream. A single
   write that raises has written nothing. *)
let rec write_all fd buf ofs len =
  if len > 0 then begin
    let n = retry_eintr (fun () -> Unix.single_write fd buf ofs len) in
    write_all fd buf (ofs + n) (len - n)
  end

(* [Some buf] or [None] on EOF before [len] bytes arrived. The buffer
   starts at 64 KiB at most and doubles only when full, so a corrupt
   length costs about what was received, not [len]; a frame that fits the
   first buffer is one allocation. *)
let read_exact fd len =
  let rec go buf ofs =
    if ofs >= len then Some buf
    else
      let buf =
        if ofs < Bytes.length buf then buf else Bytes.extend buf 0 (min len (2 * ofs) - ofs)
      in
      match retry_eintr (fun () -> Unix.read fd buf ofs (Bytes.length buf - ofs)) with
      | 0 -> None
      | n -> go buf (ofs + n)
  in
  go (Bytes.create (min len 65536)) 0

(* The digest covers the payload, not its length: a flipped bit that grew
   the length would leave [recv] waiting for bytes a live peer never sends.
   So the header is the wire version, the length and its complement,
   checked before the payload is read. *)
let header_length = 12

let send fd msg =
  let payload = Bytes.unsafe_of_string (Sealed.marshal msg) in
  let len = Bytes.length payload in
  let header = Bytes.create header_length in
  Bytes.set_int32_be header 0 (Int32.of_int wire_version);
  Bytes.set_int32_be header 4 (Int32.of_int len);
  Bytes.set_int32_be header 8 (Int32.lognot (Int32.of_int len));
  write_all fd header 0 header_length;
  write_all fd payload 0 len

let recv fd =
  match read_exact fd header_length with
  | None -> None
  | Some header ->
    let len = Bytes.get_int32_be header 4 in
    if
      Bytes.get_int32_be header 0 <> Int32.of_int wire_version
      || not (Int32.equal (Int32.lognot len) (Bytes.get_int32_be header 8))
    then None
    else
      let len = Int32.to_int len in
      if len < 0 || len > max_payload then None
      else
        Option.bind (read_exact fd len) (fun payload ->
            Sealed.unmarshal (Bytes.unsafe_to_string payload))

let send_to_server fd (msg : to_server) = send fd msg
let send_to_worker fd (msg : to_worker) = send fd msg

let recv_to_server fd : to_server option =
  try recv fd with Unix.Unix_error _ -> None

let recv_to_worker fd : to_worker option =
  try recv fd with Unix.Unix_error _ -> None

let parse_addr s =
  match String.rindex_opt s ':' with
  | Some i ->
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
     | None -> invalid_arg (Fmt.str "bad TCP address %S (port is not a number)" s)
     | Some port ->
       let addr =
         if host = "" || host = "localhost" then Unix.inet_addr_loopback
         else
           try Unix.inet_addr_of_string host
           with Failure _ -> (
             try (Unix.gethostbyname host).Unix.h_addr_list.(0)
             with Not_found -> invalid_arg (Fmt.str "cannot resolve host %S" host))
       in
       Unix.ADDR_INET (addr, port))
  | None -> Unix.ADDR_UNIX s
