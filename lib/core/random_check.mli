(** [RandomCheck(X, I, i, j, n)] — Fig. 8.

    Runs [Check] on a uniform random sample of tests from [M_{i×j}^I].
    Like [Check], it is complete (any reported violation is real); unlike
    [AutoCheck] it has no soundness guarantee — bugs may be missed — but the
    paper found it very effective in practice (Section 4.3), and it is what
    the evaluation of Section 5 uses (100 random 3×3 tests per class). *)

type test_outcome = {
  test : Test_matrix.t;
  result : Check.result;
}

type report = {
  outcomes : test_outcome list;  (** in sample order *)
  passed : int;
  failed : int;
  first_failure : test_outcome option;
  stats : Lineup_scheduler.Explore.stats;
      (** both phases of every outcome's [Check], merged in sample order *)
}

(** [run ?config ?stop_at_first ?metrics ?domains ~seed ~samples ~draw
    adapter] checks [samples] random tests. Sample [i] is the [i]-th call
    of [draw] on the one stream [Random.State.make [|seed|]]: for Fig. 8's
    tests, [draw] is [fun rng -> Test_matrix.random ~rng ~invocations
    ~rows ~cols ()]; for §4.3's invocation sequences it is
    {!Test_matrix.random_seqs}. When [stop_at_first] is set (default
    [false]), sampling stops after the first failing test.

    [domains] (default [1]) fans the checks out over that many OCaml
    domains through {!Check.run_seq} — §4.3: random sampling "is
    embarrassingly parallel: it is very easy to distribute the various
    tests and let each core run Check independently". The samples are
    drawn on the calling domain in sample order as the pool pulls them, and
    results come back in sample order, so the report (outcomes, verdicts,
    first failure, merged stats) is a function of [seed] alone: [~domains:8]
    returns exactly what [~domains:1] returns, only faster. With
    [stop_at_first], the first failing sample cancels later in-flight
    samples and the report is the prefix ending at that failure.

    [metrics] receives the counters of every reported [Check] (see
    {!Check.run}) plus [random.samples]; those of cancelled samples are
    dropped, so the totals are [domains]-independent. *)
val run :
  ?config:Check.config ->
  ?stop_at_first:bool ->
  ?metrics:Lineup_observe.Metrics.t ->
  ?domains:int ->
  seed:int ->
  samples:int ->
  draw:(Random.State.t -> Test_matrix.t) ->
  Adapter.t ->
  report
