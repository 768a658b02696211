type access_kind = Read | Write | Rmw

type entry =
  | Access of {
      tid : int;
      loc : int;
      loc_name : string;
      kind : access_kind;
      volatile : bool;
    }
  | Lock_acquire of { tid : int; lock : int; name : string }
  | Lock_release of { tid : int; lock : int; name : string }
  | Op_start of { tid : int; op_index : int }
  | Op_end of { tid : int; op_index : int }
  | Fence of { tid : int }

(* Store-buffer state for the weak memory models (Memory_model.Tso/Pso).
   A "flush unit" is one FIFO buffer the scheduler can flush from: under TSO
   each thread owns exactly one, under PSO each (thread, location) pair gets
   its own. Units are registered on first use, so their indices are
   deterministic across replays of the same decision prefix. *)
type buf_entry = { be_loc : int; be_loc_name : string; be_commit : unit -> unit }

type flush_unit = {
  fu_owner : int;
  fu_key : int; (* -1 under TSO; the location id under PSO *)
  fu_q : buf_entry Queue.t;
}

(* All per-execution state is domain-local so that independent explorations
   (e.g. Random_check.run ~domains, §4.3: random sampling "is embarrassingly
   parallel") can run on separate domains without interference. *)
type state = {
  mutable next_loc : int;
  mutable tid : int;
  mutable logging : bool;
  mutable log_entries : entry list;
  mutable memory : Memory_model.t;
  mutable units : flush_unit array;
  mutable n_units : int;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        next_loc = 0;
        tid = -1;
        logging = false;
        log_entries = [];
        memory = Memory_model.Sc;
        units = [||];
        n_units = 0;
      })

let state () = Domain.DLS.get key

let reset () =
  let s = state () in
  s.next_loc <- 0;
  s.tid <- -1;
  s.log_entries <- [];
  s.units <- [||];
  s.n_units <- 0

let fresh_loc () =
  let s = state () in
  let id = s.next_loc in
  s.next_loc <- id + 1;
  id

let set_current_tid t = (state ()).tid <- t
let current_tid () = (state ()).tid

let set_memory m =
  let s = state () in
  s.memory <- m;
  s.units <- [||];
  s.n_units <- 0

let memory () = (state ()).memory

(* The helpers below take every value as an argument: a local recursive
   function with free variables would allocate its closure on each call,
   and they run at every buffered store and drain check. *)
let rec find_unit s tid key i =
  if i >= s.n_units then None
  else
    let u = s.units.(i) in
    if u.fu_owner = tid && u.fu_key = key then Some u else find_unit s tid key (i + 1)

let buffer_push ~loc ~loc_name ~commit =
  let s = state () in
  let tid = s.tid in
  let key = match s.memory with Memory_model.Pso -> loc | _ -> -1 in
  let u =
    match find_unit s tid key 0 with
    | Some u -> u
    | None ->
      let u = { fu_owner = tid; fu_key = key; fu_q = Queue.create () } in
      if s.n_units = Array.length s.units then begin
        let bigger = Array.make (max 4 (2 * s.n_units)) u in
        Array.blit s.units 0 bigger 0 s.n_units;
        s.units <- bigger
      end;
      s.units.(s.n_units) <- u;
      s.n_units <- s.n_units + 1;
      u
  in
  Queue.push { be_loc = loc; be_loc_name = loc_name; be_commit = commit } u.fu_q

let flush_unit_count () = (state ()).n_units

let flush_unit_loc u =
  let s = state () in
  if u < 0 || u >= s.n_units || Queue.is_empty s.units.(u).fu_q then -1
  else (Queue.peek s.units.(u).fu_q).be_loc

let flush_one u =
  let s = state () in
  if u < 0 || u >= s.n_units then invalid_arg "Exec_ctx.flush_one";
  match Queue.take_opt s.units.(u).fu_q with
  | None -> invalid_arg "Exec_ctx.flush_one: empty unit"
  | Some e -> e.be_commit ()

let rec owner_empty s tid i =
  i >= s.n_units
  || ((s.units.(i).fu_owner <> tid || Queue.is_empty s.units.(i).fu_q) && owner_empty s tid (i + 1))

let buffer_empty tid = owner_empty (state ()) tid 0

let set_logging b = (state ()).logging <- b
let logging_enabled () = (state ()).logging

let with_logging enabled f =
  let s = state () in
  let saved = s.logging in
  s.logging <- enabled;
  Fun.protect ~finally:(fun () -> (state ()).logging <- saved) f

let log e =
  let s = state () in
  if s.logging then s.log_entries <- e :: s.log_entries

let current_log () = List.rev (state ()).log_entries

let pp_kind ppf = function
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"
  | Rmw -> Fmt.string ppf "rmw"

let pp_entry ppf = function
  | Access a ->
    Fmt.pf ppf "T%d %a%s %s" a.tid pp_kind a.kind
      (if a.volatile then " (volatile)" else "")
      a.loc_name
  | Lock_acquire l -> Fmt.pf ppf "T%d acquire %s" l.tid l.name
  | Lock_release l -> Fmt.pf ppf "T%d release %s" l.tid l.name
  | Op_start o -> Fmt.pf ppf "T%d op-start #%d" o.tid o.op_index
  | Op_end o -> Fmt.pf ppf "T%d op-end #%d" o.tid o.op_index
  | Fence f -> Fmt.pf ppf "T%d fence" f.tid
