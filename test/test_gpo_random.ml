(* Property-based cross-validation of the GPO engine against exhaustive
   search on randomized safe nets — the strongest correctness evidence
   in the suite.  The generator builds synchronized products of
   one-token automata (always 1-safe); the oracle checks the deadlock
   verdict, witness soundness and completeness, denotation
   reachability, and counterexample replays (see Gpn.Validate). *)

let validate_range ?spec ~label lo hi =
  Alcotest.test_case label `Slow (fun () ->
      for seed = lo to hi do
        let net = Models.Random_net.generate ?spec seed in
        match Gpn.Validate.validate ~max_states:150_000 net with
        | Ok report ->
            if not (Gpn.Validate.ok report) then
              Alcotest.failf "seed %d: %s" seed
                (Option.value ~default:"unknown discrepancy" report.detail)
        | Error _ -> () (* state budget exceeded: skip *)
      done)

let default = None

let bigger =
  Some
    {
      Models.Random_net.components = 4;
      states_per_component = 3;
      transitions = 12;
      max_sync = 3;
    }

let wide =
  Some
    {
      Models.Random_net.components = 5;
      states_per_component = 2;
      transitions = 14;
      max_sync = 2;
    }

let deep =
  Some
    {
      Models.Random_net.components = 2;
      states_per_component = 5;
      transitions = 10;
      max_sync = 2;
    }

let suite =
  [
    validate_range ?spec:default ~label:"default spec, seeds 0-599" 0 599;
    validate_range ?spec:bigger ~label:"4-component spec, seeds 0-199" 0 199;
    validate_range ?spec:wide ~label:"5-component spec, seeds 0-149" 0 149;
    validate_range ?spec:deep ~label:"deep automata spec, seeds 0-149" 0 149;
  ]
