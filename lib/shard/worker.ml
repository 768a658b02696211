module Check = Lineup.Check
module Observation_file = Lineup.Observation_file
module Explore = Lineup_scheduler.Explore

let epr fmt = Fmt.epr ("shard-worker: " ^^ fmt ^^ "@.")

(* The server binds before spawning local workers, but remote start order
   is anyone's guess — retry the connect for ~5s. *)
let connect_with_retry addr_str =
  let sockaddr = Wire.parse_addr addr_str in
  let rec go n =
    let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> Some fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when n > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.1;
      go (n - 1)
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None
  in
  go 50

type job = {
  j_config : Check.config;
  j_adapter : Lineup.Adapter.t;
  j_test : Lineup.Test_matrix.t;
  j_observation : Lineup.Observation.t;
}

let run ~connect ~lookup () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match connect_with_retry connect with
  | None ->
    epr "cannot reach server at %s" connect;
    3
  | Some fd -> (
    (* A dead server mid-send is a clean exit: the partition in flight is
       simply re-dispatched to another worker on resume. *)
    let send msg = try Wire.send_to_server fd msg; true with Unix.Unix_error _ -> false in
    if not (send Wire.Hello) then 0
    else
      let rec loop job =
        match Wire.recv_to_worker fd with
        | None | Some Wire.Shutdown -> 0
        | Some (Wire.Init i) -> (
          match lookup i.Wire.i_adapter with
          | None ->
            epr "unknown adapter %S" i.Wire.i_adapter;
            3
          | Some adapter -> (
            match
              Observation_file.observation_of_histories
                (Observation_file.of_string i.Wire.i_observation)
            with
            | Error _ ->
              epr "received a nondeterministic observation set";
              3
            | Ok observation ->
              loop
                (Some
                   {
                     j_config = i.Wire.i_config;
                     j_adapter = adapter;
                     j_test = i.Wire.i_test;
                     j_observation = observation;
                   })))
        | Some (Wire.Task { index; prefix }) -> (
          match job with
          | None ->
            epr "received a task before the job context";
            3
          | Some j -> (
            match Explore.prefix_of_string prefix with
            | Error msg ->
              if send (Wire.Failed { index; message = "bad prefix: " ^ msg }) then loop job
              else 0
            | Ok p -> (
              match
                Check.run_partition ~config:j.j_config ~observation:j.j_observation ~index
                  ~prefix:p j.j_adapter j.j_test
              with
              | part -> if send (Wire.Result { index; part }) then loop job else 0
              | exception e ->
                let message = Printexc.to_string e in
                if send (Wire.Failed { index; message }) then loop job else 0)))
      in
      let code = loop None in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      code)
