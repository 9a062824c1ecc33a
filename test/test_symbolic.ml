(* Tests for the symbolic reachability engine: exact agreement with the
   explicit engine on counts and deadlock verdicts. *)

let count_agrees ?(max_states = 500_000) net =
  let full = Petri.Reachability.explore ~max_states net in
  Alcotest.(check bool) "explicit exploration complete" false
    (Petri.Reachability.truncated full);
  let sym = Bddkit.Symbolic.analyse net in
  Alcotest.(check (float 0.0))
    (net.Petri.Net.name ^ " state count")
    (float_of_int full.states)
    sym.states;
  Alcotest.(check bool)
    (net.Petri.Net.name ^ " deadlock verdict")
    (full.deadlock_count > 0)
    (sym.deadlock <> None);
  (* A reported deadlock marking must be a real reachable deadlock. *)
  match sym.deadlock with
  | None -> ()
  | Some m ->
      Alcotest.(check bool) "witness dead" true (Petri.Semantics.is_deadlock net m);
      Alcotest.(check bool) "witness reachable" true
        (Petri.Reachability.Marking_table.mem full.visited m)

let test_models () =
  List.iter count_agrees
    [
      Models.Figures.fig1;
      Models.Figures.fig2 3;
      Models.Figures.fig3;
      Models.Figures.fig7;
      Models.Nsdp.make 2;
      Models.Nsdp.make 4;
      Models.Asat.make 2;
      Models.Asat.make 4;
      Models.Over.make 3;
      Models.Over.make 4;
      Models.Rw.make 4;
      Models.Rw.make 6;
    ]

let test_random_nets () =
  for seed = 0 to 99 do
    count_agrees (Models.Random_net.generate seed)
  done

let test_iterations_is_bfs_depth () =
  (* fig2(3): every run fires its 3 independent conflicts in 1 BFS level
     each... the diameter of the marking graph is 3. *)
  let r = Bddkit.Symbolic.analyse (Models.Figures.fig2 3) in
  Alcotest.(check int) "bfs depth" 4 r.iterations

let test_encoding_internals () =
  let net = Models.Figures.fig3 in
  let enc = Bddkit.Symbolic.Internal.encode net in
  let m = enc.Bddkit.Symbolic.Internal.manager in
  (* The initial BDD has exactly one satisfying assignment over the
     current variables. *)
  let current_only =
    Bddkit.Bdd.rename_monotone m (fun v -> v / 2) enc.Bddkit.Symbolic.Internal.initial
  in
  Alcotest.(check (float 0.0)) "unique initial marking" 1.0
    (Bddkit.Bdd.sat_count m net.Petri.Net.n_places current_only);
  (* The image of the initial set is {after A, after B}. *)
  let img = Bddkit.Symbolic.Internal.image enc enc.Bddkit.Symbolic.Internal.initial in
  let img_compact = Bddkit.Bdd.rename_monotone m (fun v -> v / 2) img in
  Alcotest.(check (float 0.0)) "two successors" 2.0
    (Bddkit.Bdd.sat_count m net.Petri.Net.n_places img_compact)

let test_rw_compact_encoding () =
  (* The paper's observation: OBDDs encode RW efficiently — the peak
     stays small relative to the state count growth. *)
  let peak n = (Bddkit.Symbolic.analyse (Models.Rw.make n)).peak_live_nodes in
  let p6 = peak 6 and p9 = peak 9 in
  let states n =
    (Petri.Reachability.explore (Models.Rw.make n)).Petri.Reachability.states
  in
  let growth_states = float_of_int (states 9) /. float_of_int (states 6) in
  let growth_peak = float_of_int p9 /. float_of_int p6 in
  Alcotest.(check bool) "peak grows slower than states" true
    (growth_peak < growth_states)

let suite =
  [
    Alcotest.test_case "counts agree on models" `Quick test_models;
    Alcotest.test_case "counts agree on random nets" `Slow test_random_nets;
    Alcotest.test_case "bfs depth" `Quick test_iterations_is_bfs_depth;
    Alcotest.test_case "encoding internals" `Quick test_encoding_internals;
    Alcotest.test_case "RW encodes compactly" `Quick test_rw_compact_encoding;
  ]
