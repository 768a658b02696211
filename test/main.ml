let () =
  Alcotest.run "lineup"
    [
      "value", Test_value.tests;
      "history", Test_history.tests;
      "serial-history", Test_serial_history.tests;
      "witness", Test_witness.tests;
      "spec", Test_spec.tests;
      "lin-check", Test_lin_check.tests;
      "runtime", Test_runtime.tests;
      "scheduler", Test_scheduler.tests;
      "harness", Test_harness.tests;
      "observation", Test_observation.tests;
      "xml", Test_xml.tests;
      "observation-file", Test_observation_file.tests;
      "check", Test_check.tests;
      "collections", Test_collections.tests;
      "random-auto", Test_random_auto.tests;
      "parallel", Test_parallel.tests;
      "extensions", Test_extensions.tests;
      "frontier", Test_frontier.tests;
      "order", Test_order.tests;
      "por", Test_por.tests;
      "observe", Test_observe.tests;
      "checkers", Test_checkers.tests;
      "pipeline", Test_pipeline.tests;
      "tso", Test_tso.tests;
      "memory", Test_memory.tests;
      "cross-validation", Test_crossval.tests;
      "membership", Test_membership.tests;
      "shard", Test_shard.tests;
      "monitor", Test_monitor.tests;
      "goldens", Test_goldens.tests;
    ]
