(* Tests for the harness layer (engines, experiment grid, budgets) and
   a few cross-cutting semantic properties that live naturally at this
   level. *)

let test_engine_names () =
  Alcotest.(check (list string))
    "column order" [ "full"; "spin+po"; "smv"; "gpo" ]
    (List.map Harness.Engine.name Harness.Engine.all)

let test_engine_outcomes_consistent () =
  let net = Models.Nsdp.make 4 in
  List.iter
    (fun kind ->
      let o = Harness.Engine.run kind net in
      Alcotest.(check bool) "found the deadlock" true o.Harness.Engine.deadlock;
      Alcotest.(check bool) "positive metric" true (o.Harness.Engine.metric > 0.);
      Alcotest.(check bool) "not truncated" false (Harness.Engine.truncated o);
      Alcotest.(check bool) "time is sane" true
        (o.Harness.Engine.time_s >= 0. && o.Harness.Engine.time_s < 300.))
    Harness.Engine.all

let test_engine_states_agree () =
  (* The explicit engine's state count equals the symbolic engine's
     reachable-marking count on every family. *)
  List.iter
    (fun net ->
      let full = Harness.Engine.run Harness.Engine.Full net in
      let smv = Harness.Engine.run Harness.Engine.Symbolic net in
      Alcotest.(check (float 0.0))
        (net.Petri.Net.name ^ " counts agree")
        full.Harness.Engine.states smv.Harness.Engine.states)
    [ Models.Nsdp.make 3; Models.Asat.make 2; Models.Over.make 3; Models.Rw.make 4 ]

let test_family_lookup () =
  Alcotest.(check string) "case-insensitive" "NSDP"
    (Harness.Experiment.family "nsdp").Harness.Experiment.id;
  Alcotest.(check bool) "expected deadlock flag" true
    (Harness.Experiment.family "NSDP").Harness.Experiment.expect_deadlock;
  Alcotest.(check bool) "rw expects none" false
    (Harness.Experiment.family "rw").Harness.Experiment.expect_deadlock;
  Alcotest.check_raises "unknown family" Not_found (fun () ->
      ignore (Harness.Experiment.family "nope"))

let test_paper_rows_complete () =
  (* Every family carries the paper's rows for the paper's sizes. *)
  List.iter
    (fun (id, expected_sizes) ->
      let fam = Harness.Experiment.family id in
      Alcotest.(check (list int))
        (id ^ " sizes")
        expected_sizes
        (List.map fst fam.Harness.Experiment.rows))
    [
      ("nsdp", [ 2; 4; 6; 8; 10 ]);
      ("asat", [ 2; 4; 8 ]);
      ("over", [ 2; 3; 4; 5 ]);
      ("rw", [ 6; 9; 12; 15 ]);
    ]

let test_measure_verdicts () =
  List.iter
    (fun fam ->
      let size = List.hd (List.map fst fam.Harness.Experiment.rows) in
      let m = Harness.Experiment.measure fam size in
      List.iter
        (fun o ->
          Alcotest.(check bool)
            (Printf.sprintf "%s(%d) %s verdict matches the family" fam.id size
               (Harness.Engine.name o.Harness.Engine.kind))
            fam.Harness.Experiment.expect_deadlock o.Harness.Engine.deadlock)
        m.Harness.Experiment.outcomes)
    Harness.Experiment.families

(* Cross-cutting semantic properties. *)

let test_diamond_property () =
  (* Independent (non-conflicting) enabled transitions commute — the
     basis of every partial-order argument in the library. *)
  for seed = 0 to 49 do
    let net = Models.Random_net.generate seed in
    let conflict = Petri.Conflict.analyse net in
    let m0 = net.Petri.Net.initial in
    let enabled = Petri.Bitset.elements (Petri.Semantics.enabled_set net m0) in
    List.iter
      (fun t ->
        List.iter
          (fun u ->
            if t < u && not (Petri.Conflict.in_conflict conflict t u) then begin
              let tu = Petri.Semantics.fire_sequence net m0 [ t; u ] in
              let ut = Petri.Semantics.fire_sequence net m0 [ u; t ] in
              match (tu, ut) with
              | Some a, Some b ->
                  Alcotest.(check bool)
                    (Printf.sprintf "seed %d: %d and %d commute" seed t u)
                    true (Petri.Bitset.equal a b)
              | _ -> Alcotest.failf "seed %d: independent pair got disabled" seed
            end)
          enabled)
      enabled
  done

let test_stubborn_subset_of_enabled () =
  for seed = 0 to 49 do
    let net = Models.Random_net.generate seed in
    let conflict = Petri.Conflict.analyse net in
    let r = Petri.Reachability.explore ~max_states:5_000 net in
    Petri.Reachability.Marking_table.iter
      (fun m () ->
        let enabled = Petri.Semantics.enabled_set net m in
        List.iter
          (fun heuristic ->
            let stubborn = Petri.Stubborn.compute conflict heuristic m in
            List.iter
              (fun t ->
                Alcotest.(check bool) "stubborn member enabled" true
                  (Petri.Bitset.mem t enabled))
              stubborn;
            Alcotest.(check bool) "nonempty iff live" true
              (Petri.Bitset.is_empty enabled = (stubborn = [])))
          [ Petri.Stubborn.First_seed; Petri.Stubborn.Smallest ])
      r.visited
  done

let test_gpo_metric_is_paper_configuration () =
  (* Table 1 reports the paper-faithful (scan-free) GPO counts; every
     other caller of Engine.run gets the complete configuration. *)
  let fam = Harness.Experiment.family "over" in
  let m = Harness.Experiment.measure ~engines:[ Harness.Engine.Gpo ] fam 4 in
  let o = List.hd m.Harness.Experiment.outcomes in
  let direct = Gpn.Explorer.analyse ~scan:false (fam.make 4) in
  Alcotest.(check (float 0.0)) "table1 states match scan:false"
    (float_of_int direct.Gpn.Explorer.states) o.Harness.Engine.metric;
  let net = fam.make 4 in
  let o = Harness.Engine.run Harness.Engine.Gpo net in
  let scan = Gpn.Explorer.analyse ~scan:true net in
  Alcotest.(check (float 0.0)) "default states match scan:true"
    (float_of_int scan.Gpn.Explorer.states) o.Harness.Engine.metric

(* Harness.Query: every bad input is an [Error], never an exception. *)

module Q = Harness.Query

let test_query_bad_inputs () =
  let rejects what r =
    match r with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  let model id size = Q.Model { id; size } in
  List.iter
    (fun (id, size) ->
      rejects (Printf.sprintf "%s %d" id size) (Q.prepare (model id size)))
    [ ("asat", 6); ("fig2", 0); ("nsdp", 1); ("rw", 1); ("over", 1);
      ("scheduler", 1); ("no-such-model", 4) ];
  rejects "unknown place" (Q.prepare ~cover:[ "nosuch" ] (model "nsdp" 3));
  rejects "malformed inline net" (Q.prepare (Q.Inline "pl p (1\n"));
  rejects "missing file" (Q.prepare (Q.File "/nonexistent/net.net"));
  rejects "unknown engine" (Q.selection_of_string "bogus");
  List.iter
    (fun sel ->
      Alcotest.(check bool)
        (Q.selection_name sel ^ " parses back")
        true
        (Q.selection_of_string (Q.selection_name sel) = Ok sel))
    (Q.Portfolio :: List.map (fun k -> Q.Single k) Harness.Engine.all)

(* Regression: the paper configuration misses the deadlock of random
   net 1; the query pipeline (and the Engine.run default) finds it. *)
let test_query_default_is_complete () =
  let net = Models.Random_net.generate 1 in
  let paper = Harness.Engine.run ~gpo_scan:false Harness.Engine.Gpo net in
  Alcotest.(check bool) "paper configuration misses it" false
    paper.Harness.Engine.deadlock;
  let q =
    match Q.prepare (Q.Model { id = "random"; size = 1 }) with
    | Ok q -> q
    | Error msg -> Alcotest.fail msg
  in
  let budgets =
    { Q.max_states = 5_000_000; jobs = 1; timeout_s = None; mem_mb = None }
  in
  let o =
    Q.run ~witness:true ~reduce:false budgets (Q.Single Harness.Engine.Gpo) q
  in
  Alcotest.(check bool) "the query finds it" true o.Harness.Engine.deadlock;
  Alcotest.(check bool) "and certifies it" true
    (Harness.Certify.certified (Q.certify q o))

let suite =
  [
    Alcotest.test_case "engine names" `Quick test_engine_names;
    Alcotest.test_case "engine outcomes" `Quick test_engine_outcomes_consistent;
    Alcotest.test_case "explicit = symbolic counts" `Quick test_engine_states_agree;
    Alcotest.test_case "family lookup" `Quick test_family_lookup;
    Alcotest.test_case "paper rows complete" `Quick test_paper_rows_complete;
    Alcotest.test_case "measure verdicts" `Quick test_measure_verdicts;
    Alcotest.test_case "diamond property" `Quick test_diamond_property;
    Alcotest.test_case "stubborn ⊆ enabled" `Quick test_stubborn_subset_of_enabled;
    Alcotest.test_case "gpo metric configuration" `Quick
      test_gpo_metric_is_paper_configuration;
    Alcotest.test_case "query: bad inputs are errors" `Quick
      test_query_bad_inputs;
    Alcotest.test_case "query: gpo runs the complete configuration" `Quick
      test_query_default_is_complete;
  ]
