(* The deviation scan's two kernels against their references: the
   denotation classes of [Gpn.Scan.classify] (one descent of the
   world-set tries) against grouping the worlds one by one through
   [State.denoted_marking], and the incremental normal form against the
   cycle-detecting walk.  Checked on every state the explorer visits. *)

module B = Petri.Bitset
module W = Gpn.World_set
module E = Gpn.Explorer
module Scan = Gpn.Scan

let zoo = Test_conformance.zoo @ [ Models.Nsdp.make 6; Models.Asat.make 4 ]

let visited_states (r : E.result) =
  List.concat_map
    (fun (run : E.run) ->
      Gpn.State.Table.fold (fun s () acc -> s :: acc) run.E.visited [])
    r.E.runs

let check_marking ~label expected actual =
  Alcotest.(check (list int)) label (B.elements expected) (B.elements actual)

let check_classes (net : Petri.Net.t) =
  let r = E.analyse net in
  let sc = Scan.create r.E.ctx in
  List.iter
    (fun s ->
      let classes = Scan.classify sc s in
      let markings ws =
        List.map B.elements
          (List.sort B.compare (Scan.markings_meeting classes ws))
      in
      W.iter
        (fun v ->
          Alcotest.(check (list (list int)))
            (net.name ^ ": class marking of a world")
            [ B.elements (Gpn.State.denoted_marking s v) ]
            (markings (W.singleton v)))
        (Gpn.State.valid s);
      Alcotest.(check (list (list int)))
        (net.name ^ ": one class per denoted marking")
        (List.map B.elements (Gpn.State.mapping s))
        (markings (Gpn.State.valid s)))
    (visited_states r)

(* Every denoted marking of every visited state, and its successor
   through every choice transition it enables, the way the scan
   computes them (the rejected successors among them). *)
let check_normal_forms (net : Petri.Net.t) =
  let r = E.analyse net in
  let sc = Scan.create r.E.ctx in
  let choice = Gpn.Dynamics.choice_transitions r.E.ctx in
  let check ~label m nf = check_marking ~label (Scan.normal_form_walk sc m) nf in
  List.iter
    (fun s ->
      let classes = Scan.classify sc s in
      W.iter
        (fun v ->
          let m = Gpn.State.denoted_marking s v in
          check ~label:(net.name ^ ": normal form") m (Scan.normal_form sc m);
          B.iter
            (fun t ->
              if Petri.Semantics.enabled net t m then begin
                let m', nf = Scan.deviation sc classes v t in
                check_marking ~label:(net.name ^ ": successor")
                  (fst (Petri.Semantics.fire net t m)) m';
                check ~label:(net.name ^ ": successor normal form") m' nf
              end)
            choice)
        (Gpn.State.valid s))
    (visited_states r)

(* A cycle of conflict-free transitions (a <-> b) entered from x, beside
   a free choice: the walk outlasts |cf| + 1 firings and must settle on
   the least marking of the cycle. *)
let cf_cycle () =
  let b = Petri.Builder.create "cf-cycle" in
  let x = Petri.Builder.place b ~marked:true "x" in
  let a = Petri.Builder.place b "a" in
  let bb = Petri.Builder.place b "b" in
  let c = Petri.Builder.place b ~marked:true "c" in
  let d = Petri.Builder.place b "d" in
  let e = Petri.Builder.place b "e" in
  ignore (Petri.Builder.transition b "enter" ~pre:[ x ] ~post:[ a ]);
  ignore (Petri.Builder.transition b "ab" ~pre:[ a ] ~post:[ bb ]);
  ignore (Petri.Builder.transition b "ba" ~pre:[ bb ] ~post:[ a ]);
  ignore (Petri.Builder.transition b "cd" ~pre:[ c ] ~post:[ d ]);
  ignore (Petri.Builder.transition b "ce" ~pre:[ c ] ~post:[ e ]);
  Petri.Builder.build b

(* A conflict-free transition with an empty preset is always enabled:
   once it is the lowest enabled one, the walk repeats it forever. *)
let empty_preset () =
  let b = Petri.Builder.create "empty-preset" in
  let q = Petri.Builder.place b ~marked:true "q" in
  let r = Petri.Builder.place b "r" in
  let p = Petri.Builder.place b "p" in
  let c = Petri.Builder.place b ~marked:true "c" in
  let d = Petri.Builder.place b "d" in
  let e = Petri.Builder.place b "e" in
  ignore (Petri.Builder.transition b "qr" ~pre:[ q ] ~post:[ r ]);
  ignore (Petri.Builder.transition b "source" ~pre:[] ~post:[ p ]);
  ignore (Petri.Builder.transition b "cd" ~pre:[ c ] ~post:[ d ]);
  ignore (Petri.Builder.transition b "ce" ~pre:[ c ] ~post:[ e ]);
  Petri.Builder.build b

let marking net names =
  B.of_list net.Petri.Net.n_places (List.map (Petri.Net.place_index net) names)

let test_hand_built () =
  List.iter
    (fun (net, expected) ->
      let sc = Scan.create (Gpn.Dynamics.make net) in
      let nf = Scan.normal_form sc net.Petri.Net.initial in
      check_marking ~label:(net.name ^ ": normal form of m0") expected nf;
      check_marking ~label:(net.name ^ ": walk agrees") nf
        (Scan.normal_form_walk sc net.initial);
      check_classes net;
      check_normal_forms net)
    [
      (let net = cf_cycle () in
       (* {a, c} and {b, c} form the cycle; a precedes b. *)
       (net, marking net [ "a"; "c" ]));
      (let net = empty_preset () in
       (net, marking net [ "r"; "p"; "c" ]));
    ]

let test_classes_zoo () = List.iter check_classes zoo
let test_normal_forms_zoo () = List.iter check_normal_forms zoo

let seeds = List.init 150 Fun.id

let test_classes_random () =
  List.iter (fun seed -> check_classes (Models.Random_net.generate seed)) seeds

let test_normal_forms_random () =
  List.iter (fun seed -> check_normal_forms (Models.Random_net.generate seed)) seeds

let suite =
  [
    Alcotest.test_case "classes on the zoo" `Quick test_classes_zoo;
    Alcotest.test_case "classes on random nets" `Slow test_classes_random;
    Alcotest.test_case "normal form on the zoo" `Quick test_normal_forms_zoo;
    Alcotest.test_case "normal form on random nets" `Slow test_normal_forms_random;
    Alcotest.test_case "hand-built conflict-free nets" `Quick test_hand_built;
  ]
