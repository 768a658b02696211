(* A footprint is an immediate: [Pure], [Event] and [Unknown] are 0, 1 and
   2, and an access to location [loc] is [4 * (loc + 1) + k], with [k] 0 for
   a read, 1 for a write and 2 for a read-modify-write. Steps record one
   each, so building and storing it allocates nothing. *)
type t = int

let pure = 0
let event = 1
let unknown = 2
let kind_code = function Exec_ctx.Read -> 0 | Exec_ctx.Write -> 1 | Exec_ctx.Rmw -> 2
let access ~loc ~kind = ((loc + 1) lsl 2) lor kind_code kind
let is_rmw fp = fp >= 4 && fp land 3 = 2

let conflicts a b =
  if a = pure || b = pure then false
  else if a = unknown || b = unknown then true
  else if a = event || b = event then a = b
  else a lsr 2 = b lsr 2 && (a land 3 <> 0 || b land 3 <> 0)

let pp ppf fp =
  if fp = pure then Fmt.string ppf "pure"
  else if fp = event then Fmt.string ppf "event"
  else if fp = unknown then Fmt.string ppf "unknown"
  else
    Fmt.pf ppf "%s loc%d"
      (match fp land 3 with 0 -> "read" | 1 -> "write" | _ -> "rmw")
      ((fp lsr 2) - 1)
