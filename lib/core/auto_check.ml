module Explore = Lineup_scheduler.Explore
module Metrics = Lineup_observe.Metrics

type outcome =
  | Failed of {
      test : Test_matrix.t;
      result : Check.result;
      tests_run : int;
      stats : Explore.stats;
    }
  | Budget_exhausted of { tests_run : int; stats : Explore.stats }

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

(* The AutoCheck enumeration of Fig. 6 as a single lazy sequence: for
   n = 1, 2, 3, … every test in M_{n×n}^{I_n}, with I_n the first n
   invocations of the adapter's universe. Lazy so that the parallel pool's
   bounded queue never forces more of the (unbounded) enumeration than the
   workers are about to consume. *)
let test_seq (adapter : Adapter.t) =
  let universe_size = List.length adapter.universe in
  let level n =
    Test_matrix.enumerate
      ~invocations:(take (min n universe_size) adapter.universe)
      ~rows:n ~cols:n
  in
  let rec levels n () = Seq.Cons (level n, levels (n + 1)) in
  Seq.concat (levels 1)

let run ?config ?domains ?metrics ~max_tests adapter =
  let results, stats =
    Check.run_seq ?config ?domains ?metrics ~stop_at_first:true adapter
      (Seq.take max_tests (test_seq adapter))
  in
  let tests_run = List.length results in
  Option.iter (fun m -> Metrics.add m "auto.tests_run" tests_run) metrics;
  match List.rev results with
  | (test, result) :: _ when Check.failed result -> Failed { test; result; tests_run; stats }
  | _ -> Budget_exhausted { tests_run; stats }
