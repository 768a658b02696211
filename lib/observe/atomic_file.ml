(* Atomic whole-file writes: the bytes land in a same-directory temporary
   file which is then renamed over the destination. [Sys.rename] is atomic
   on POSIX, so a concurrent reader — or a reader after the writer was
   killed mid-write — sees either the previous complete file or the new
   complete file, never a truncated prefix. The pid and domain in the
   temporary name keep concurrent writers from clobbering each other's
   staging file. *)

let write ~path contents =
  let tmp = Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Domain.self () :> int) in
  let oc = open_out_bin tmp in
  (match
     output_string oc contents;
     close_out oc
   with
   | () -> ()
   | exception e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end
