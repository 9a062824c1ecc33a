(* Tests for the explicit explorer, the stubborn-set reduction and the
   behavioural property checks. *)

module B = Petri.Bitset

let test_fig1_full_graph () =
  (* Figure 1: three independent transitions — 2^3 = 8 markings, the
     factorial-interleaving example of Section 2.2. *)
  let r = Petri.Reachability.explore Models.Figures.fig1 in
  Alcotest.(check int) "8 states" 8 r.states;
  Alcotest.(check int) "12 edges" 12 r.edges;
  Alcotest.(check int) "one terminal marking" 1 r.deadlock_count;
  Alcotest.(check bool) "not truncated" false (Petri.Reachability.truncated r)

let test_fig2_counts () =
  (* Figure 2: N conflict pairs — full graph 3^N, stubborn 2^(N+1)-1. *)
  List.iter
    (fun n ->
      let net = Models.Figures.fig2 n in
      let full = Petri.Reachability.explore net in
      let po = Petri.Stubborn.explore net in
      let pow b e = int_of_float (Float.pow (float_of_int b) (float_of_int e)) in
      Alcotest.(check int) (Printf.sprintf "full 3^%d" n) (pow 3 n) full.states;
      Alcotest.(check int)
        (Printf.sprintf "po 2^%d-1" (n + 1))
        ((2 * pow 2 n) - 1)
        po.states;
      Alcotest.(check int) "2^N final markings are dead" (pow 2 n)
        full.deadlock_count)
    [ 1; 2; 3; 4; 5 ]

let test_deadlock_trace () =
  let net = Models.Nsdp.make 3 in
  match Petri.Properties.find_deadlock net with
  | None -> Alcotest.fail "NSDP must deadlock"
  | Some trace ->
      Alcotest.(check bool) "trace valid" true (Petri.Trace.is_valid net trace);
      Alcotest.(check bool) "trace ends dead" true
        (Petri.Semantics.is_deadlock net (Petri.Trace.final_marking net trace))

let test_truncation () =
  let net = Models.Nsdp.make 6 in
  let r = Petri.Reachability.explore ~max_states:100 net in
  Alcotest.(check bool) "truncated" true (Petri.Reachability.truncated r);
  Alcotest.(check bool) "stop reason is the state budget" true
    (r.stop = Guard.State_budget);
  Alcotest.(check bool) "states within budget" true (r.states <= 101)

let test_max_deadlocks_cap () =
  let net = Models.Figures.fig2 4 in
  let r = Petri.Reachability.explore ~max_deadlocks:3 net in
  Alcotest.(check int) "kept 3 witnesses" 3 (List.length r.deadlocks);
  Alcotest.(check int) "counted all 16" 16 r.deadlock_count

let test_trace_requires_flag () =
  let net = Models.Figures.fig1 in
  let r = Petri.Reachability.explore net in
  match Petri.Reachability.trace_to r net.Petri.Net.initial with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Stubborn sets *)

let test_stubborn_preserves_deadlock_verdict () =
  let nets =
    [
      Models.Nsdp.make 3;
      Models.Nsdp.make 4;
      Models.Asat.make 4;
      Models.Over.make 3;
      Models.Rw.make 4;
      Models.Figures.fig2 4;
      Models.Figures.fig3;
      Models.Figures.fig7;
    ]
  in
  List.iter
    (fun net ->
      let full = Petri.Reachability.explore net in
      let po = Petri.Stubborn.explore net in
      Alcotest.(check bool)
        (net.Petri.Net.name ^ " verdict agrees")
        (full.deadlock_count > 0)
        (po.deadlock_count > 0);
      Alcotest.(check bool)
        (net.Petri.Net.name ^ " po not larger")
        true
        (po.states <= full.states))
    nets

let test_stubborn_preserves_deadlock_verdict_random () =
  for seed = 0 to 199 do
    let net = Models.Random_net.generate seed in
    let full = Petri.Reachability.explore net in
    let po = Petri.Stubborn.explore net in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d verdict" seed)
      (full.deadlock_count > 0)
      (po.deadlock_count > 0);
    (* Every deadlock marking must also be visited by the reduced
       exploration (stubborn sets preserve all deadlocked markings). *)
    List.iter
      (fun m ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d deadlock visited" seed)
          true
          (Petri.Reachability.Marking_table.mem po.visited m))
      full.deadlocks
  done

let test_stubborn_reduces_nsdp () =
  let net = Models.Nsdp.make 6 in
  let full = Petri.Reachability.explore net in
  let po = Petri.Stubborn.explore net in
  Alcotest.(check bool) "at least 10x reduction" true (po.states * 10 < full.states)

(* Properties *)

let test_properties_nsdp () =
  let net = Models.Nsdp.make 3 in
  let report = Petri.Properties.check net in
  Alcotest.(check bool) "not deadlock free" false report.deadlock_free;
  Alcotest.(check bool) "safe" true report.safe;
  Alcotest.(check bool) "quasi-live" true report.quasi_live;
  Alcotest.(check bool) "not reversible (deadlock)" false report.reversible;
  Alcotest.(check bool) "complete" true report.complete

let test_properties_rw () =
  let net = Models.Rw.make 3 in
  let report = Petri.Properties.check net in
  Alcotest.(check bool) "deadlock free" true report.deadlock_free;
  Alcotest.(check bool) "safe" true report.safe;
  Alcotest.(check bool) "quasi-live" true report.quasi_live;
  Alcotest.(check bool) "reversible" true report.reversible

let test_dead_transition_detection () =
  let net =
    Petri.Parser.of_string
      "pl a (1)\npl b\npl c\ntr t1 : a -> b\ntr never : c -> a\n"
  in
  let report = Petri.Properties.check net in
  Alcotest.(check bool) "has dead transition" false report.quasi_live;
  Alcotest.(check (list int)) "never is dead"
    [ Petri.Net.transition_index net "never" ]
    (B.elements report.dead_transitions)

let suite =
  [
    Alcotest.test_case "fig1 full graph" `Quick test_fig1_full_graph;
    Alcotest.test_case "fig2 counts" `Quick test_fig2_counts;
    Alcotest.test_case "deadlock trace" `Quick test_deadlock_trace;
    Alcotest.test_case "truncation" `Quick test_truncation;
    Alcotest.test_case "max deadlocks cap" `Quick test_max_deadlocks_cap;
    Alcotest.test_case "trace requires flag" `Quick test_trace_requires_flag;
    Alcotest.test_case "stubborn verdicts (models)" `Quick
      test_stubborn_preserves_deadlock_verdict;
    Alcotest.test_case "stubborn verdicts (random)" `Slow
      test_stubborn_preserves_deadlock_verdict_random;
    Alcotest.test_case "stubborn reduces NSDP" `Quick test_stubborn_reduces_nsdp;
    Alcotest.test_case "properties of NSDP" `Quick test_properties_nsdp;
    Alcotest.test_case "properties of RW" `Quick test_properties_rw;
    Alcotest.test_case "dead transition detection" `Quick test_dead_transition_detection;
  ]
