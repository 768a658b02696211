type test_outcome = {
  test : Test_matrix.t;
  result : Check.result;
}

type report = {
  outcomes : test_outcome list;
  passed : int;
  failed : int;
  first_failure : test_outcome option;
  stats : Lineup_scheduler.Explore.stats;
}

let run ?config ?stop_at_first ?metrics ?domains ~seed ~samples ~draw adapter =
  let rng = Random.State.make [| seed |] in
  (* [Seq.init] draws sample i when the pool pulls job i, on the calling
     domain and in submission order: one stream, whatever [domains]. *)
  let results, stats =
    Check.run_seq ?config ?domains ?metrics ?stop_at_first adapter
      (Seq.init samples (fun _ -> draw rng))
  in
  let outcomes = List.map (fun (test, result) -> { test; result }) results in
  Option.iter
    (fun m -> Lineup_observe.Metrics.add m "random.samples" (List.length outcomes))
    metrics;
  let failing o = Check.failed o.result in
  let failed = List.length (List.filter failing outcomes) in
  {
    outcomes;
    passed = List.length outcomes - failed;
    failed;
    first_failure = List.find_opt failing outcomes;
    stats;
  }
