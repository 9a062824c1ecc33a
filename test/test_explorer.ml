(* Tests for the generalized partial-order explorer: state counts on
   the paper's models, deadlock witnesses and traces, and exhaustive
   cross-validation against the classical engine. *)

let gpo net = Gpn.Explorer.analyse net

let test_fig2_two_states () =
  (* The 2^(N+1)-1 → 2 collapse of Section 3.1. *)
  List.iter
    (fun n ->
      let r = gpo (Models.Figures.fig2 n) in
      Alcotest.(check int) (Printf.sprintf "fig2(%d) = 2 states" n) 2 r.states;
      Alcotest.(check int) "single run" 1 (List.length r.runs);
      Alcotest.(check bool) "terminal markings reported dead" false
        (Gpn.Explorer.deadlock_free r))
    [ 1; 2; 4; 8; 12 ]

let test_nsdp_constant_states () =
  (* The headline claim: NSDP needs a number of GPO states independent
     of the number of philosophers, and the deadlock is found. *)
  let counts =
    List.map
      (fun n ->
        let r = gpo (Models.Nsdp.make n) in
        Alcotest.(check bool) "deadlock found" false (Gpn.Explorer.deadlock_free r);
        Alcotest.(check int) "single run" 1 (List.length r.runs);
        r.states)
      [ 2; 4; 6; 8; 10; 12 ]
  in
  match counts with
  | first :: rest ->
      List.iter (Alcotest.(check int) "constant in n" first) rest
  | [] -> assert false

let test_rw_two_states () =
  List.iter
    (fun n ->
      let r = gpo (Models.Rw.make n) in
      Alcotest.(check int) (Printf.sprintf "rw(%d)" n) 2 r.states;
      Alcotest.(check bool) "deadlock free" true (Gpn.Explorer.deadlock_free r))
    [ 3; 6; 9; 12; 15 ]

let test_asat_slow_growth () =
  let states n = (gpo (Models.Asat.make n)).Gpn.Explorer.states in
  let s2 = states 2 and s4 = states 4 and s8 = states 8 in
  Alcotest.(check bool) "monotone growth" true (s2 <= s4 && s4 <= s8);
  (* The paper reports 8/14/23: growth far below the 88/7822/1.58e6 of
     the full graph.  Allow slack but require sub-linear-in-full scaling. *)
  Alcotest.(check bool) "asat(8) stays tiny" true (s8 < 64)

let test_over_deadlock_free () =
  List.iter
    (fun n ->
      let r = gpo (Models.Over.make n) in
      Alcotest.(check bool)
        (Printf.sprintf "over(%d) deadlock free" n)
        true
        (Gpn.Explorer.deadlock_free r))
    [ 2; 3; 4; 5 ]

let test_witness_and_trace () =
  let net = Models.Nsdp.make 4 in
  let r = gpo net in
  match r.deadlocks with
  | [] -> Alcotest.fail "NSDP deadlocks"
  | witness :: _ ->
      (* Witness markings are real deadlocked markings. *)
      List.iter
        (fun m ->
          Alcotest.(check bool) "witness marking dead" true
            (Petri.Semantics.is_deadlock net m))
        witness.markings;
      (* The extracted trace replays and ends deadlocked. *)
      let trace = Gpn.Explorer.deadlock_trace r witness in
      Alcotest.(check bool) "trace valid" true (Petri.Trace.is_valid net trace);
      Alcotest.(check bool) "trace ends dead" true
        (Petri.Semantics.is_deadlock net (Petri.Trace.final_marking net trace))

let test_truncation () =
  let r = Gpn.Explorer.analyse ~max_states:1 (Models.Nsdp.make 4) in
  Alcotest.(check bool) "truncated" true (Gpn.Explorer.truncated r);
  Alcotest.(check bool) "stop reason is the state budget" true
    (r.stop = Guard.State_budget)

let test_max_deadlocks () =
  let r = Gpn.Explorer.analyse ~max_deadlocks:1 (Models.Figures.fig2 4) in
  Alcotest.(check int) "witness cap" 1 (List.length r.deadlocks)

(* Exhaustive cross-validation on the benchmark models (small sizes). *)

let test_validate_models () =
  List.iter
    (fun net ->
      match Gpn.Validate.validate net with
      | Error reason ->
          Alcotest.failf "%s: validation stopped (%s)" net.Petri.Net.name
            (Guard.string_of_stop reason)
      | Ok report ->
          Alcotest.(check bool)
            (Format.asprintf "%s validates (%s)" net.Petri.Net.name
               (Option.value ~default:"" report.detail))
            true (Gpn.Validate.ok report))
    [
      Models.Nsdp.make 2;
      Models.Nsdp.make 3;
      Models.Nsdp.make 4;
      Models.Asat.make 2;
      Models.Asat.make 4;
      Models.Over.make 2;
      Models.Over.make 3;
      Models.Over.make 4;
      Models.Rw.make 3;
      Models.Rw.make 5;
      Models.Figures.fig1;
      Models.Figures.fig2 5;
      Models.Figures.fig3;
      Models.Figures.fig5;
      Models.Figures.fig7;
    ]

let test_deviation_restart_example () =
  (* A net whose only extra deadlock needs a conflict cluster to be
     re-entered with a different resolution — the case that forces a
     deviation restart (distilled from a randomized counterexample). *)
  let net =
    Petri.Parser.of_string
      {|net reentry
        pl p (1)
        pl q (1)
        pl done1
        pl trap
        tr take  : p q -> p done1     # cluster {take, stop}: q chooses
        tr stop  : q -> trap
        tr again : done1 -> q|}
  in
  match Gpn.Validate.validate net with
  | Error reason ->
      Alcotest.failf "reentry validation stopped (%s)"
        (Guard.string_of_stop reason)
  | Ok report ->
      Alcotest.(check bool)
        (Format.asprintf "reentry validates (%s)"
           (Option.value ~default:"" report.detail))
        true (Gpn.Validate.ok report)


let test_render () =
  let r = Gpn.Explorer.analyse (Models.Nsdp.make 3) in
  let dot = Gpn.Render.result r in
  Alcotest.(check bool) "digraph" true (String.sub dot 0 8 = "digraph ");
  Alcotest.(check bool) "mentions takeL" true
    (Astring_contains.contains "takeL" dot);
  Alcotest.(check bool) "marks the deadlock" true
    (Astring_contains.contains "lightcoral" dot);
  (* A result with restarts renders the dashed provenance edges. *)
  let r2 = Gpn.Explorer.analyse (Models.Over.make 3) in
  if List.length r2.runs > 1 then
    Alcotest.(check bool) "restart edges" true
      (Astring_contains.contains "restart:" (Gpn.Render.result r2))

let suite =
  [
    Alcotest.test_case "fig2 collapses to 2 states" `Quick test_fig2_two_states;
    Alcotest.test_case "NSDP constant states" `Quick test_nsdp_constant_states;
    Alcotest.test_case "RW two states" `Quick test_rw_two_states;
    Alcotest.test_case "ASAT slow growth" `Quick test_asat_slow_growth;
    Alcotest.test_case "OVER deadlock free" `Quick test_over_deadlock_free;
    Alcotest.test_case "witness and trace" `Quick test_witness_and_trace;
    Alcotest.test_case "truncation" `Quick test_truncation;
    Alcotest.test_case "witness cap" `Quick test_max_deadlocks;
    Alcotest.test_case "validate on models" `Quick test_validate_models;
    Alcotest.test_case "deviation restart example" `Quick test_deviation_restart_example;
    Alcotest.test_case "dot rendering" `Quick test_render;
  ]
