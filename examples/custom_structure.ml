(* Checking your own data structure: a bounded ring buffer.

   The scenario the paper's introduction motivates: "a growing number of
   programmers will develop concurrent components that are tailored to
   their applications" — components that ship without a formal spec.
   Line-Up needs none.

   We build a fixed-capacity ring buffer protected by a lock, with one
   "optimization": [Size] reads the two cursors without the lock, one after
   the other. Reading two related cells non-atomically is exactly the kind
   of plausible-looking shortcut that breaks linearizability — Line-Up
   produces the counterexample, and the fixed version passes.

   Run: dune exec examples/custom_structure.exe *)

module Value = Lineup_value.Value
module Invocation = Lineup_history.Invocation
module Var = Lineup_runtime.Shared_var
module Mutex_ = Lineup_runtime.Mutex_
open Lineup

let capacity = 3

let make ~atomic_size () =
  let lock = Mutex_.create () in
  let slots = Array.init capacity (fun i -> Var.make ~name:(Fmt.str "slot%d" i) 0) in
  let head = Var.make ~name:"head" 0 in
  (* next slot to read *)
  let tail = Var.make ~name:"tail" 0 in
  (* next slot to write *)
  let invoke (i : Invocation.t) =
    match i.Invocation.name, i.Invocation.arg with
    | "TryPut", Value.Int x ->
      Mutex_.with_lock lock (fun () ->
          let h = Var.read head and t = Var.read tail in
          if t - h >= capacity then Value.bool false
          else begin
            Var.write slots.(t mod capacity) x;
            Var.write tail (t + 1);
            Value.bool true
          end)
    | "TryGet", Value.Unit ->
      Mutex_.with_lock lock (fun () ->
          let h = Var.read head and t = Var.read tail in
          if h = t then Value.Fail
          else begin
            let x = Var.read slots.(h mod capacity) in
            Var.write head (h + 1);
            Value.int x
          end)
    | "Size", Value.Unit ->
      if atomic_size then Mutex_.with_lock lock (fun () -> Value.int (Var.read tail - Var.read head))
      else begin
        (* the shortcut: two unlocked reads — a producer or consumer can
           slip between them *)
        let h = Var.read head in
        let t = Var.read tail in
        Value.int (t - h)
      end
    | _ -> Fmt.invalid_arg "ring: unknown operation %s" i.Invocation.name
  in
  { Adapter.invoke }

let adapter ~atomic_size name =
  Adapter.make ~name
    ~universe:
      [
        Invocation.make ~arg:(Value.int 1) "TryPut";
        Invocation.make ~arg:(Value.int 2) "TryPut";
        Invocation.make "TryGet";
        Invocation.make "Size";
      ]
    (make ~atomic_size)

let () =
  let buggy = adapter ~atomic_size:false "ring buffer (racy Size)" in
  (* Seed one element so Size has something to misreport (the §4.3 init
     sequence), then hunt with RandomCheck. *)
  let init = [ Invocation.make ~arg:(Value.int 9) "TryPut" ] in
  Fmt.pr "Hunting with RandomCheck (40 random 2x2 tests, pre-seeded buffer)...@.@.";
  let draw (a : Adapter.t) rng =
    Test_matrix.random ~init ~rng ~invocations:a.Adapter.universe ~rows:2 ~cols:2 ()
  in
  let report =
    Random_check.run ~stop_at_first:true ~seed:2025 ~samples:40 ~draw:(draw buggy) buggy
  in
  (match report.Random_check.first_failure with
   | Some o ->
     Fmt.pr "RandomCheck found it after %d tests:@.%s@.@."
       (List.length report.Random_check.outcomes)
       (Report.check_result_to_string ~adapter:buggy ~test:o.Random_check.test
          o.Random_check.result)
   | None -> Fmt.pr "RandomCheck missed it in this sample — as §4.3 warns it may.@.@.");
  (* The targeted scenario: Size must overlap a TryGet/TryPut pair so its
     two unlocked reads straddle both updates, observing a size that never
     existed. *)
  let targeted =
    Test_matrix.make ~init
      [
        [ Invocation.make "Size" ];
        [ Invocation.make "TryGet"; Invocation.make ~arg:(Value.int 2) "TryPut" ];
      ]
  in
  Fmt.pr "Targeted test:@.@.";
  let result = Check.run buggy targeted in
  Fmt.pr "%s@.@." (Report.check_result_to_string ~adapter:buggy ~test:targeted result);
  let fixed = adapter ~atomic_size:true "ring buffer (locked Size)" in
  let result = Check.run fixed targeted in
  Fmt.pr "Fixed version on the same test: %s@." (Report.summary result);
  let report = Random_check.run ~seed:2025 ~samples:40 ~draw:(draw fixed) fixed in
  Fmt.pr "Fixed version under RandomCheck: %d/40 random tests passed@."
    report.Random_check.passed
