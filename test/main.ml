(* Aggregated test runner: `dune runtest` executes every suite.
   Slow suites (large randomized sweeps) are included by default; use
   `dune exec test/main.exe -- test -q` or ALCOTEST_QUICK_TESTS to skip
   them. *)

let () =
  Alcotest.run "gpo"
    [
      ("bitset", Test_bitset.suite);
      ("net", Test_net.suite);
      ("parser", Test_parser.suite);
      ("guard", Test_guard.suite);
      ("semantics", Test_semantics.suite);
      ("reachability", Test_reachability.suite);
      ("invariant", Test_invariant.suite);
      ("world-set", Test_world_set.suite);
      ("gpo-scan", Test_scan.suite);
      ("gpo-pinned", Test_pinned.suite);
      ("gpn-dynamics", Test_dynamics.suite);
      ("gpo-explorer", Test_explorer.suite);
      ("gpo-random", Test_gpo_random.suite);
      ("bdd", Test_bdd.suite);
      ("symbolic", Test_symbolic.suite);
      ("safety", Test_safety.suite);
      ("siphon", Test_siphon.suite);
      ("models", Test_models.suite);
      ("harness", Test_harness.suite);
      ("conformance", Test_conformance.suite);
      ("reduce", Test_reduce.suite);
      ("certify", Test_certify.suite);
      ("experiments", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("deep-obs", Test_deep_obs.suite);
      ("bench-compare", Test_bench_compare.suite);
      ("par", Test_par.suite);
      ("serve", Test_serve.suite);
      ("journal", Test_journal.suite);
      ("persist", Test_persist.suite);
      ("chaos", Test_chaos.suite);
    ]
