(* Host-speed calibration.

   The benchmark runs on shared machines whose speed drifts by up to ±25%
   over minutes, for every workload at once; no statistic taken within a
   run removes that. Every time and rate the benchmark reports is
   therefore scaled to a reference host: a fixed kernel that uses only the
   OCaml standard library — so no change to this repository can move it —
   is timed before the run and every half second between items, and
   times are multiplied by [reference_s /. median kernel time]. On a
   2-vCPU host that halved the run-to-run spread of every time (README.md,
   "Host noise"). *)

let now = Lineup_observe.Monotonic.now

(* The kernel's median time on the 2-vCPU x86-64 host where the benchmark
   was defined, in a quiet period: reported times are seconds on that host. *)
let reference_s = 0.016

(* Allocation, hashing and pointer chasing with a small live set — the mix
   of the checker's inner loops. *)
let kernel () =
  let t0 = now () in
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 60_000 do
    let l = List.init 8 (fun j -> i + j) in
    Hashtbl.replace h (i land 4095) l;
    match Hashtbl.find_opt h ((i * 31) land 4095) with
    | Some l -> acc := !acc + List.fold_left ( + ) 0 l
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let samples = ref []
let last = ref neg_infinity

let sample () =
  samples := kernel () :: !samples;
  last := now ()

(* Before set-up: the first call in a process pays for growing the heap,
   so it is not kept. *)
let start () =
  ignore (kernel ());
  sample ();
  sample ()

(* Take a sample when half a second has passed since the last one;
   returns the time it took, which the caller keeps out of its
   measurement. *)
let maybe_sample () =
  if now () -. !last < 0.5 then 0.
  else begin
    let t0 = now () in
    sample ();
    now () -. t0
  end

(* Multiply a time by this (divide a rate by it). *)
let factor () = reference_s /. Stats.median !samples
