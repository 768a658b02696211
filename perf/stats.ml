(* Order statistics over run samples. *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks ([p] in [0, 1]). *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let r = p *. float (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

(* The quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so [compare] and the
   spread figures in README.md agree with any Python-side check. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 2, q 3)

let sum xs = List.fold_left ( +. ) 0. xs

(* [num /. den], or 0 when there is nothing to divide by (a layer that did
   no work on this workload). *)
let ratio num den = if den > 0. then num /. den else 0.
