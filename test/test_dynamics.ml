(* Step-by-step replays of the paper's worked examples (Figures 3, 4,
   5, 6 and 7) on the GPN dynamics, plus unit tests of the firing
   rules. *)

module B = Petri.Bitset
module W = Gpn.World_set

let world net names =
  B.of_list net.Petri.Net.n_transitions
    (List.map (Petri.Net.transition_index net) names)

let ws net worlds = W.of_list (List.map (world net) worlds)

let check_ws net msg expected actual =
  Alcotest.(check bool)
    (msg ^ Format.asprintf " (got %a)" (W.pp ~name:(Petri.Net.transition_name net) ()) actual)
    true
    (W.equal (ws net expected) actual)

let check_marking net msg expected actual =
  Alcotest.(check bool)
    (msg ^ Format.asprintf " (got %a)" (Petri.Net.pp_marking net) actual)
    true
    (B.equal
       (B.of_list net.Petri.Net.n_places
          (List.map (Petri.Net.place_index net) expected))
       actual)

(* ------------------------------------------------------------------ *)
(* Figure 3: simultaneous firing of conflicting A and B, then C; D is
   blocked by its mixed-color inputs. *)

let test_fig3_replay () =
  let net = Models.Figures.fig3 in
  let ctx = Gpn.Dynamics.make net in
  let t name = Petri.Net.transition_index net name in
  let p name = Petri.Net.place_index net name in
  let s0 = Gpn.Dynamics.initial ctx in
  (* The valid sets are the maximal conflict-free sets over the clusters
     {A,B} and {C,D}. *)
  check_ws net "r0" [ [ "A"; "C" ]; [ "A"; "D" ]; [ "B"; "C" ]; [ "B"; "D" ] ]
    (Gpn.State.valid s0);
  check_ws net "m_enabled(A) at s0" [ [ "A"; "C" ]; [ "A"; "D" ] ]
    (Gpn.Dynamics.m_enabled ctx (t "A") s0);
  check_ws net "m_enabled(B) at s0" [ [ "B"; "C" ]; [ "B"; "D" ] ]
    (Gpn.Dynamics.m_enabled ctx (t "B") s0);
  (* Fire A and B simultaneously (Figure 3(b)). *)
  let ab = B.of_list net.Petri.Net.n_transitions [ t "A"; t "B" ] in
  let s1 =
    Gpn.Dynamics.step_fire ctx (Gpn.Dynamics.enabling ctx s0) ~multiples:ab
      ~singles:[] s0
  in
  Gpn.Dynamics.check_invariant ctx s1;
  check_ws net "p2 red" [ [ "A"; "C" ]; [ "A"; "D" ] ] (Gpn.State.marking s1 (p "p2"));
  check_ws net "p3 red" [ [ "A"; "C" ]; [ "A"; "D" ] ] (Gpn.State.marking s1 (p "p3"));
  check_ws net "p4 green" [ [ "B"; "C" ]; [ "B"; "D" ] ] (Gpn.State.marking s1 (p "p4"));
  Alcotest.(check bool) "p1 empty" true (W.is_empty (Gpn.State.marking s1 (p "p1")));
  (* C is single-enabled (common history), D is not (conflicting colors). *)
  check_ws net "s_enabled(C)" [ [ "A"; "C" ]; [ "A"; "D" ] ]
    (Gpn.Dynamics.s_enabled ctx (t "C") s1);
  Alcotest.(check bool) "D blocked by conflicting colors" true
    (W.is_empty (Gpn.Dynamics.s_enabled ctx (t "D") s1));
  (* The state denotes both classical markings of the original graph. *)
  Alcotest.(check int) "two denoted markings" 2 (List.length (Gpn.State.mapping s1));
  (* The B-worlds are deadlocked at {p4}: the B branch is stuck. *)
  let dead = Gpn.Dynamics.deadlock_worlds (Gpn.Dynamics.enabling ctx s1) s1 in
  check_ws net "dead worlds" [ [ "B"; "C" ]; [ "B"; "D" ] ] dead;
  check_marking net "dead denotation" [ "p4" ]
    (Gpn.State.denoted_marking s1 (world net [ "B"; "C" ]));
  (* Fire C (Figure 3(c)): the red token moves to p5. *)
  let s2 =
    Gpn.Dynamics.step_fire ctx (Gpn.Dynamics.enabling ctx s1)
      ~multiples:(B.singleton net.Petri.Net.n_transitions (t "C"))
      ~singles:[] s1
  in
  check_ws net "p5 red" [ [ "A"; "C" ] ] (Gpn.State.marking s2 (p "p5"));
  check_ws net "r2 keeps only the fired world" [ [ "A"; "C" ] ] (Gpn.State.valid s2)

(* ------------------------------------------------------------------ *)
(* Figure 5: the single firing rule.  The marking is built by hand to
   match the paper's: m(p0) = {{A},{B}}, m(p1) = {{A}}, m(p2) = {{B}},
   r = {{A},{B}}. *)

let test_fig5_replay () =
  let net = Models.Figures.fig5 in
  let ctx = Gpn.Dynamics.make net in
  let t name = Petri.Net.transition_index net name in
  let p name = Petri.Net.place_index net name in
  let va = world net [ "A" ] and vb = world net [ "B" ] in
  let r = W.of_list [ va; vb ] in
  let m = Array.make net.Petri.Net.n_places W.empty in
  m.(p "p0") <- r;
  m.(p "p1") <- W.singleton va;
  m.(p "p2") <- W.singleton vb;
  let s = Gpn.State.make m r in
  (* A is single-enabled with the common history {{A}}; B is not. *)
  check_ws net "s_enabled(A)" [ [ "A" ] ] (Gpn.Dynamics.s_enabled ctx (t "A") s);
  Alcotest.(check bool) "B not single-enabled" true
    (W.is_empty (Gpn.Dynamics.s_enabled ctx (t "B") s));
  (* mapping(⟨m,r⟩) = {{p0,p1}, {p0,p2}} as printed in the paper. *)
  check_marking net "world A denotes {p0,p1}" [ "p0"; "p1" ]
    (Gpn.State.denoted_marking s va);
  check_marking net "world B denotes {p0,p2}" [ "p0"; "p2" ]
    (Gpn.State.denoted_marking s vb);
  (* Fire A with the single rule (Figure 5(b)). *)
  let s' = Gpn.Dynamics.single_fire ctx (t "A") s in
  Gpn.Dynamics.check_invariant ctx s';
  check_ws net "history moved to p3" [ [ "A" ] ] (Gpn.State.marking s' (p "p3"));
  Alcotest.(check bool) "p1 emptied" true (W.is_empty (Gpn.State.marking s' (p "p1")));
  check_ws net "p0 keeps world B" [ [ "B" ] ] (Gpn.State.marking s' (p "p0"));
  Alcotest.(check bool) "r unchanged by single firing" true
    (W.equal r (Gpn.State.valid s'));
  (* mapping(⟨m',r⟩) = {{p3}, {p0,p2}}: exactly the classical markings
     reached from Figure 6(a) by firing A. *)
  check_marking net "world A now denotes {p3}" [ "p3" ]
    (Gpn.State.denoted_marking s' va);
  check_marking net "world B untouched" [ "p0"; "p2" ]
    (Gpn.State.denoted_marking s' vb)

(* ------------------------------------------------------------------ *)
(* Figure 7: two concurrently marked conflict places; firing {A,B} then
   {C,D} narrows the valid sets to {{A,C},{B,D}} — the "extended
   conflict" between A/D and B/C. *)

let test_fig7_replay () =
  let net = Models.Figures.fig7 in
  let ctx = Gpn.Dynamics.make net in
  let t name = Petri.Net.transition_index net name in
  let p name = Petri.Net.place_index net name in
  let s0 = Gpn.Dynamics.initial ctx in
  check_ws net "m_enabled(A) = {{A,C},{A,D}}" [ [ "A"; "C" ]; [ "A"; "D" ] ]
    (Gpn.Dynamics.m_enabled ctx (t "A") s0);
  check_ws net "m_enabled(B) = {{B,C},{B,D}}" [ [ "B"; "C" ]; [ "B"; "D" ] ]
    (Gpn.Dynamics.m_enabled ctx (t "B") s0);
  Alcotest.(check int) "mapping(s0) = {m0}" 1 (List.length (Gpn.State.mapping s0));
  let s1 =
    Gpn.Dynamics.step_fire ctx (Gpn.Dynamics.enabling ctx s0)
      ~multiples:(B.of_list net.Petri.Net.n_transitions [ t "A"; t "B" ])
      ~singles:[] s0
  in
  (* r1 = r0: the first simultaneous firing does not restrict r. *)
  Alcotest.(check bool) "r1 = r0" true
    (W.equal (Gpn.State.valid s0) (Gpn.State.valid s1));
  check_ws net "p1 after A" [ [ "A"; "C" ]; [ "A"; "D" ] ]
    (Gpn.State.marking s1 (p "p1"));
  check_ws net "p2 after B" [ [ "B"; "C" ]; [ "B"; "D" ] ]
    (Gpn.State.marking s1 (p "p2"));
  (* mapping(s1) = two classical markings: {p1,p3} and {p2,p3}. *)
  Alcotest.(check int) "mapping(s1)" 2 (List.length (Gpn.State.mapping s1));
  check_marking net "A-worlds denote {p1,p3}" [ "p1"; "p3" ]
    (Gpn.State.denoted_marking s1 (world net [ "A"; "C" ]));
  check_marking net "B-worlds denote {p2,p3}" [ "p2"; "p3" ]
    (Gpn.State.denoted_marking s1 (world net [ "B"; "D" ]));
  (* Fire {C,D} simultaneously. *)
  check_ws net "m_enabled(C) at s1" [ [ "A"; "C" ] ]
    (Gpn.Dynamics.m_enabled ctx (t "C") s1);
  check_ws net "m_enabled(D) at s1" [ [ "B"; "D" ] ]
    (Gpn.Dynamics.m_enabled ctx (t "D") s1);
  let s2 =
    Gpn.Dynamics.step_fire ctx (Gpn.Dynamics.enabling ctx s1)
      ~multiples:(B.of_list net.Petri.Net.n_transitions [ t "C"; t "D" ])
      ~singles:[] s1
  in
  (* The extra conditioning rules out {A,D} and {B,C}: the extended
     conflict of the paper. *)
  check_ws net "r2 = {{A,C},{B,D}}" [ [ "A"; "C" ]; [ "B"; "D" ] ]
    (Gpn.State.valid s2);
  check_ws net "p4 = {{A,C}}" [ [ "A"; "C" ] ] (Gpn.State.marking s2 (p "p4"));
  check_ws net "p5 = {{B,D}}" [ [ "B"; "D" ] ] (Gpn.State.marking s2 (p "p5"));
  Alcotest.(check int) "mapping(s2)" 2 (List.length (Gpn.State.mapping s2))

(* ------------------------------------------------------------------ *)
(* Firing-rule units beyond the figures. *)

let test_initial_construction () =
  let net = Models.Figures.fig2 3 in
  let ctx = Gpn.Dynamics.make net in
  let s0 = Gpn.Dynamics.initial ctx in
  (* 3 independent pairs: 2^3 maximal conflict-free sets. *)
  Alcotest.(check int) "8 worlds" 8 (W.cardinal (Gpn.State.valid s0));
  Alcotest.(check int) "3 choice clusters" 3
    (List.length (Gpn.Dynamics.cluster_alternatives ctx));
  (* Every marked place holds r0, every unmarked place is empty. *)
  for p = 0 to net.Petri.Net.n_places - 1 do
    if B.mem p net.Petri.Net.initial then
      Alcotest.(check bool) "marked place holds r0" true
        (W.equal (Gpn.State.valid s0) (Gpn.State.marking s0 p))
    else
      Alcotest.(check bool) "unmarked place empty" true
        (W.is_empty (Gpn.State.marking s0 p))
  done

let test_non_choice_transitions_not_in_labels () =
  let net = Models.Nsdp.make 3 in
  let ctx = Gpn.Dynamics.make net in
  let choice = Gpn.Dynamics.choice_transitions ctx in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is not a choice transition") false
        (B.mem (Petri.Net.transition_index net name) choice))
    [ "hungry.0"; "reach.1"; "release.2" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is a choice transition") true
        (B.mem (Petri.Net.transition_index net name) choice))
    [ "takeL.0"; "takeR.2" ];
  (* Worlds only mention choice transitions. *)
  W.iter
    (fun v -> Alcotest.(check bool) "world within choice" true (B.subset v choice))
    (Gpn.State.valid (Gpn.Dynamics.initial ctx))

let test_step_fire_combines () =
  (* fig2(1) plus an independent conflict-free transition: one step can
     fire the conflicting pair (multiple rule) and the free transition
     (single rule) together. *)
  let b = Petri.Builder.create "mixed" in
  let c = Petri.Builder.place b ~marked:true "c" in
  let a_out = Petri.Builder.place b "a_out" in
  let b_out = Petri.Builder.place b "b_out" in
  let x = Petri.Builder.place b ~marked:true "x" in
  let y = Petri.Builder.place b "y" in
  let ta = Petri.Builder.transition b "A" ~pre:[ c ] ~post:[ a_out ] in
  let tb = Petri.Builder.transition b "B" ~pre:[ c ] ~post:[ b_out ] in
  let tu = Petri.Builder.transition b "U" ~pre:[ x ] ~post:[ y ] in
  let net = Petri.Builder.build b in
  let ctx = Gpn.Dynamics.make net in
  let s0 = Gpn.Dynamics.initial ctx in
  let s1 =
    Gpn.Dynamics.step_fire ctx (Gpn.Dynamics.enabling ctx s0)
      ~multiples:(B.of_list net.Petri.Net.n_transitions [ ta; tb ])
      ~singles:[ tu ] s0
  in
  Gpn.Dynamics.check_invariant ctx s1;
  Alcotest.(check bool) "x emptied" true (W.is_empty (Gpn.State.marking s1 x));
  Alcotest.(check int) "y holds both worlds" 2 (W.cardinal (Gpn.State.marking s1 y));
  Alcotest.(check int) "a_out holds the A world" 1
    (W.cardinal (Gpn.State.marking s1 a_out));
  (* Denotations: {a_out, y} and {b_out, y}. *)
  Alcotest.(check int) "two denotations" 2 (List.length (Gpn.State.mapping s1))

let test_initial_of_marking () =
  let net = Models.Figures.fig3 in
  let ctx = Gpn.Dynamics.make net in
  let marking =
    B.of_list net.Petri.Net.n_places
      [ Petri.Net.place_index net "p2"; Petri.Net.place_index net "p3" ]
  in
  let s = Gpn.Dynamics.initial_of_marking ctx marking in
  Alcotest.(check int) "denotes the marking" 1 (List.length (Gpn.State.mapping s));
  check_marking net "denotation" [ "p2"; "p3" ]
    (List.hd (Gpn.State.mapping s))

(* ------------------------------------------------------------------ *)
(* Cluster alternatives against brute force.                          *)

(* A net whose conflict relation is the graph [edges] on [n]
   transitions: each transition consumes a private place, and each
   edge a place its two ends share. *)
let net_of_conflicts n edges =
  let b = Petri.Builder.create "conflicts" in
  let place name = Petri.Builder.place b ~marked:true name in
  let own = Array.init n (fun t -> place (Printf.sprintf "own%d" t)) in
  let shared =
    List.map (fun (u, v) -> (u, v, place (Printf.sprintf "e%d_%d" u v))) edges
  in
  for t = 0 to n - 1 do
    let pre =
      own.(t)
      :: List.filter_map
           (fun (u, v, p) -> if u = t || v = t then Some p else None)
           shared
    in
    ignore (Petri.Builder.transition b (Printf.sprintf "t%d" t) ~pre ~post:pre)
  done;
  Petri.Builder.build b

(* Every subset of the cluster that is conflict-free and cannot grow. *)
let brute_force_alternatives conflict members =
  let ms = Array.of_list (B.elements members) in
  let independent s =
    B.for_all
      (fun u ->
        B.for_all
          (fun v -> u = v || not (Petri.Conflict.in_conflict conflict u v))
          s)
      s
  in
  let subset mask =
    let s = ref (B.empty (B.width members)) in
    Array.iteri (fun i t -> if mask land (1 lsl i) <> 0 then s := B.add t !s) ms;
    !s
  in
  let maximal s =
    Array.for_all (fun v -> B.mem v s || not (independent (B.add v s))) ms
  in
  List.init (1 lsl Array.length ms) subset
  |> List.filter (fun s -> independent s && maximal s)
  |> List.sort B.compare

let test_alternatives_brute_force () =
  let st = Random.State.make [| 0xa17 |] in
  let pairs n = List.concat (List.init n (fun u -> List.init u (fun v -> (v, u)))) in
  for case = 0 to 199 do
    let n = 1 + Random.State.int st 10 in
    let edges =
      match case mod 4 with
      | 0 -> pairs n (* a clique: every alternative is a singleton *)
      | 1 -> [] (* edgeless: no choice clusters at all *)
      | 2 ->
          (* RW-shaped: mutually independent readers 0..k-1, and writers
             in conflict with every other transition. *)
          let k = Random.State.int st (n + 1) in
          List.filter (fun (_, u) -> u >= k) (pairs n)
      | _ ->
          let density = Random.State.float st 1.0 in
          List.filter (fun _ -> Random.State.float st 1.0 < density) (pairs n)
    in
    let net = net_of_conflicts n edges in
    let conflict = Petri.Conflict.analyse net in
    let expected =
      Array.to_list (Petri.Conflict.clusters conflict)
      |> List.filter (fun members -> B.cardinal members >= 2)
      |> List.map (brute_force_alternatives conflict)
    in
    let got = Gpn.Dynamics.cluster_alternatives (Gpn.Dynamics.make ~conflict net) in
    if not (List.equal (List.equal B.equal) expected got) then
      Alcotest.failf "case %d (%d transitions, %d conflicts): alternatives differ"
        case n (List.length edges)
  done

let suite =
  [
    Alcotest.test_case "figure 3 replay" `Quick test_fig3_replay;
    Alcotest.test_case "figure 5 replay" `Quick test_fig5_replay;
    Alcotest.test_case "figure 7 replay" `Quick test_fig7_replay;
    Alcotest.test_case "initial construction" `Quick test_initial_construction;
    Alcotest.test_case "labels mention only choice transitions" `Quick
      test_non_choice_transitions_not_in_labels;
    Alcotest.test_case "combined step" `Quick test_step_fire_combines;
    Alcotest.test_case "initial of marking" `Quick test_initial_of_marking;
    Alcotest.test_case "cluster alternatives = brute force" `Quick
      test_alternatives_brute_force;
  ]
