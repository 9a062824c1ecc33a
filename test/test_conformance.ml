(* Cross-engine differential conformance.

   All four engines answer the same question — "does this safe net have
   a reachable dead marking?" — by wildly different means (explicit
   BFS, stubborn sets, BDD fixpoint, GPN worlds), so on any net where
   the exhaustive engine completes they must agree.  The suite runs the
   models zoo plus a seeded sweep of random safe nets and checks:

   - verdict agreement of full / stubborn / symbolic / hardened GPO
     ([Gpn.Explorer] with the deviation scan, the complete
     configuration);
   - the paper-faithful GPO configuration ([~scan:false]) is checked
     for soundness only: any deadlock it reports must be real, but a
     clean answer is not authoritative (it is known to miss deadlocks
     on some nets, e.g. safety monitors);
   - state-count consistency where the theory gives one: the symbolic
     engine counts exactly the reachable markings (= full's states),
     and the stubborn reduction never explores more than full.

   Failures dump the net (and the seed, via the label) under
   [test-failures/] so they reproduce offline. *)

module E = Harness.Engine

let max_states = 150_000

type verdicts = {
  full : Petri.Reachability.result;
  stub : Petri.Reachability.result;
  smv : Bddkit.Symbolic.result;
  gpo : Gpn.Explorer.result;  (* hardened: scan = true *)
  gpo_paper : Gpn.Explorer.result;  (* paper: scan = false *)
}

(* Returns [None] when the exhaustive baseline was truncated: with no
   ground truth there is nothing to compare against. *)
let run_all net =
  let full = Petri.Reachability.explore ~max_states net in
  if Petri.Reachability.truncated full then None
  else
    Some
      {
        full;
        stub = Petri.Stubborn.explore ~max_states net;
        smv = Bddkit.Symbolic.analyse net;
        gpo = Gpn.Explorer.analyse ~max_states net;
        gpo_paper = Gpn.Explorer.analyse ~scan:false ~max_states net;
      }

let check ~label net =
  match run_all net with
  | None -> ()
  | Some v ->
      let truth = v.full.deadlock_count > 0 in
      let disagree engine verdict =
        if verdict <> truth then
          Failure_dump.failf ~label net
            "%s verdict %b disagrees with exhaustive search (%b; %d states)"
            engine verdict truth v.full.states
      in
      (* On a net the exhaustive baseline finishes, every other engine
         must finish too (stubborn/GPO explore subsets of the budget
         full stayed within; the symbolic engine has no budget): a
         truncated stop here is a guard regression silently cutting
         explorations short, which mere verdict agreement would let
         pass. *)
      let incomplete engine stop =
        if stop <> Guard.Completed then
          Failure_dump.failf ~label net
            "%s stopped early (%s) on a net the exhaustive baseline completed \
             (%d states)"
            engine (Guard.string_of_stop stop) v.full.states
      in
      incomplete "stubborn" v.stub.stop;
      incomplete "symbolic" v.smv.stop;
      incomplete "gpo (hardened)" v.gpo.stop;
      disagree "stubborn" (v.stub.deadlock_count > 0);
      disagree "symbolic" (v.smv.deadlock <> None);
      disagree "gpo (hardened)" (not (Gpn.Explorer.deadlock_free v.gpo));
      (* Paper configuration: sound but not complete — one direction. *)
      if
        (not (Gpn.Explorer.truncated v.gpo_paper))
        && (not (Gpn.Explorer.deadlock_free v.gpo_paper))
        && not truth
      then
        Failure_dump.failf ~label net
          "gpo (paper, scan:false) reports a deadlock on a deadlock-free net";
      (* The symbolic state count is a model count of the reachability
         fixpoint: it must equal the number of explicitly visited
         markings exactly. *)
      if Float.of_int v.full.states <> v.smv.states then
        Failure_dump.failf ~label net
          "symbolic counts %.0f reachable markings, explicit visited %d"
          v.smv.states v.full.states;
      if
        (not (Petri.Reachability.truncated v.stub))
        && v.stub.states > v.full.states
      then
        Failure_dump.failf ~label net
          "stubborn explored %d states, more than the full graph (%d)"
          v.stub.states v.full.states

(* The zoo, capped at sizes the from-scratch BDD engine clears quickly. *)
let zoo =
  [
    Models.Figures.fig1;
    Models.Figures.fig2 4;
    Models.Figures.fig2 6;
    Models.Figures.fig3;
    Models.Figures.fig5;
    Models.Figures.fig7;
    Models.Nsdp.make 2;
    Models.Nsdp.make 4;
    Models.Asat.make 2;
    Models.Over.make 2;
    Models.Over.make 3;
    Models.Over.make 4;
    Models.Rw.make 3;
    Models.Rw.make 6;
    Models.Scheduler.make 2;
    Models.Scheduler.make 3;
  ]

let zoo_conformance () =
  List.iter (fun net -> check ~label:net.Petri.Net.name net) zoo

(* The monitor construction is exactly where the paper configuration
   was caught missing deadlocks, so monitored nets get their own
   differential pass: every zoo net is monitored on the preset of one
   of its transitions (a cover that is reachable iff that transition is
   ever enabled — both outcomes occur across the zoo). *)
let monitored (net : Petri.Net.t) =
  match Petri.Bitset.elements net.pre.(0) with
  | [] -> None
  | never_all ->
      Some (Petri.Safety.monitor net { Petri.Safety.name = "conf"; never_all })

let monitored_zoo_conformance () =
  List.iter
    (fun (net : Petri.Net.t) ->
      Option.iter (check ~label:(net.name ^ "-monitored")) (monitored net))
    zoo

let random_conformance () =
  Failure_dump.iter_seeds (fun seed ->
      let net = Models.Random_net.generate seed in
      check ~label:(Printf.sprintf "conformance-seed-%d" seed) net)

(* Same agreement, exercised through the uniform [Harness.Engine.run]
   layer that the CLI uses (witnesses on, so the reconstruction paths
   run too). *)
let engine_layer_conformance () =
  List.iter
    (fun (net : Petri.Net.t) ->
      let label = net.name ^ "-engine-layer" in
      let outcomes reduce =
        List.map
          (fun kind ->
            let o = E.run ~max_states ~witness:true ~gpo_scan:true ~reduce kind net in
            (* These instances are far under every budget: any truncated
               stop is a regression, and filtering it out would mute the
               verdict comparison below. *)
            if E.truncated o then
              Failure_dump.failf ~label net
                "%s%s stopped early (%s) on a small instance" (E.name kind)
                (if reduce then " (reduced)" else "")
                (Guard.string_of_stop o.E.stop);
            o)
          E.all
      in
      match outcomes false @ outcomes true with
      | [] -> ()
      | o :: rest ->
          List.iter
            (fun (o' : E.outcome) ->
              if o'.deadlock <> o.deadlock then
                Failure_dump.failf ~label net
                  "%s says deadlock=%b but %s says %b" (E.name o'.kind)
                  o'.deadlock (E.name o.kind) o.deadlock)
            rest)
    [ Models.Nsdp.make 2; Models.Over.make 3; Models.Figures.fig2 4 ]

let suite =
  [
    Alcotest.test_case "zoo conformance" `Quick zoo_conformance;
    Alcotest.test_case "monitored zoo conformance" `Quick
      monitored_zoo_conformance;
    Alcotest.test_case "engine-layer conformance" `Quick
      engine_layer_conformance;
    Alcotest.test_case "random net conformance" `Slow random_conformance;
  ]
