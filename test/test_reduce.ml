(* Metamorphic differential suite for the structural reduction pipeline.

   The reduction rewrites a net into a smaller one that must answer the
   query identically, so the whole subsystem is testable from first
   principles without trusting any of its internals:

   - every engine's verdict on the reduced net must equal its verdict on
     the original (and the exhaustive ground truth), over the zoo and a
     seeded sweep of random safe nets;
   - every violated verdict produced through [~reduce:true] must carry a
     witness that replays — via [Harness.Certify] — against the
     {e original} net, i.e. the composed inverse mapping is exact;
   - each rule {e alone} must preserve its query (per-rule differentials
     with the explicit engine as oracle), fire on a hand-made net
     exhibiting its pattern, and leave a net without the pattern alone.

   Failures dump the offending net under [test-failures/]. *)

module E = Harness.Engine
module C = Harness.Certify
module R = Reduce
module Net = Petri.Net
module Bitset = Petri.Bitset
module B = Petri.Builder
module Sem = Petri.Semantics
module Trace = Petri.Trace

let max_states = 150_000

let ground_truth net =
  let r = Petri.Reachability.explore ~max_states net in
  if Petri.Reachability.truncated r then None else Some (r.deadlock_count > 0)

(* --- Full pipeline: engine differentials + certified lifting ---------- *)

(* One net through all four engines (hardened GPO) and the portfolio,
   with and without reduction: identical verdicts, no truncation, and
   every deadlock witness found on the reduced net certifies against
   the original after lifting. *)
let check_pipeline ~label net =
  match ground_truth net with
  | None -> ()
  | Some truth ->
      let red = R.run net in
      if R.ratio red < 1.0 then
        Failure_dump.failf ~label net "reduction grew the net (ratio %.2f)"
          (R.ratio red);
      let check_outcome engine (o : E.outcome) =
        if E.truncated o then
          Failure_dump.failf ~label net "%s stopped early (%s) on a small net"
            engine
            (Guard.string_of_stop o.stop);
        if o.deadlock <> truth then
          Failure_dump.failf ~label net
            "%s with reduction says deadlock=%b, exhaustive truth is %b" engine
            o.deadlock truth;
        if o.deadlock then
          match C.deadlock net o with
          | C.Certified _ -> ()
          | v ->
              Failure_dump.failf ?trace:o.witness ~label net
                "%s lifted witness failed certification against the original \
                 net: %a"
                engine (C.pp net) v
      in
      List.iter
        (fun kind ->
          let plain = E.run ~max_states ~witness:true ~gpo_scan:true kind net in
          let reduced =
            E.run ~max_states ~witness:true ~gpo_scan:true ~reduce:true kind net
          in
          if plain.deadlock <> reduced.deadlock then
            Failure_dump.failf ~label net
              "%s verdict flips under reduction: plain=%b reduced=%b"
              (E.name kind) plain.deadlock reduced.deadlock;
          check_outcome (E.name kind) reduced)
        E.all;
      let r =
        Harness.Portfolio.run ~max_states ~witness:true ~reduce:true net
      in
      check_outcome "portfolio" r.Harness.Portfolio.outcome

let zoo_pipeline () =
  List.iter
    (fun (net : Net.t) -> check_pipeline ~label:(net.name ^ "-reduce") net)
    Test_conformance.zoo

let random_pipeline () =
  Failure_dump.iter_seeds (fun seed ->
      let net = Models.Random_net.generate seed in
      check_pipeline ~label:(Printf.sprintf "reduce-seed-%d" seed) net)

(* --- Per-rule differentials ------------------------------------------- *)

(* Deadlock-preserving rules, one at a time: the reduced net must have a
   reachable dead marking iff the original does (explicit oracle both
   sides), and a witness found on the reduced net must lift through
   [R.lift] to a valid deadlock run of the original — exercising the
   inverse mapping of each rule in isolation. *)
let check_rule_deadlock ~label rule net =
  match ground_truth net with
  | None -> ()
  | Some truth ->
      let red = R.run ~rules:[ rule ] net in
      let o =
        E.run ~max_states ~witness:true ~gpo_scan:true E.Full red.R.net
      in
      if E.truncated o then
        Failure_dump.failf ~label net "%s: reduced-net exploration truncated"
          (R.rule_name rule);
      if o.deadlock <> truth then
        Failure_dump.failf ~label net
          "%s alone flips the deadlock verdict: original=%b reduced=%b"
          (R.rule_name rule) truth o.deadlock;
      if o.deadlock then
        match o.witness with
        | None ->
            Failure_dump.failf ~label net "%s: no witness on the reduced net"
              (R.rule_name rule)
        | Some tr ->
            let lifted = R.lift red tr in
            if not (Trace.is_valid net lifted) then
              Failure_dump.failf ~trace:lifted ~label net
                "%s: lifted witness does not replay on the original"
                (R.rule_name rule);
            let final = Trace.final_marking net lifted in
            if not (Sem.is_deadlock net final) then
              Failure_dump.failf ~trace:lifted ~label net
                "%s: lifted witness ends in a live marking" (R.rule_name rule)

(* Identity_transition preserves coverability only, so its differential
   compares safety ground truth: the cover (preset of transition 0,
   protected so it survives verbatim) is reachable on the original iff
   its image is reachable on the reduced net. *)
let check_identity_rule_safety ~label (net : Net.t) =
  match Bitset.elements net.pre.(0) with
  | [] -> ()
  | never_all -> (
      let property = { Petri.Safety.name = "red"; never_all } in
      let red = R.run ~query:R.Safety ~protect:never_all
          ~rules:[ R.Identity_transition ] net
      in
      let mapped =
        List.map
          (fun p ->
            match R.place_image red p with
            | Some p' -> p'
            | None ->
                Failure_dump.failf ~label net
                  "identity_transition dropped protected place %s"
                  (Net.place_name net p))
          never_all
      in
      let property' = { Petri.Safety.name = "red"; never_all = mapped } in
      match
        ( Petri.Safety.violated_explicit ~max_states net property,
          Petri.Safety.violated_explicit ~max_states red.R.net property' )
      with
      | exception Failure _ -> ()
      | original, reduced ->
          if original <> reduced then
            Failure_dump.failf ~label net
              "identity_transition flips coverability: original=%b reduced=%b"
              original reduced)

let deadlock_rules =
  List.filter (R.preserves R.Deadlock) R.all_rules

let per_rule_zoo () =
  List.iter
    (fun (net : Net.t) ->
      List.iter
        (fun rule ->
          check_rule_deadlock
            ~label:(Printf.sprintf "%s-%s" net.name (R.rule_name rule))
            rule net)
        deadlock_rules;
      check_identity_rule_safety ~label:(net.name ^ "-identity-safety") net)
    Test_conformance.zoo

let per_rule_random () =
  Failure_dump.iter_seeds (fun seed ->
      let net = Models.Random_net.generate seed in
      List.iter
        (fun rule ->
          check_rule_deadlock
            ~label:(Printf.sprintf "seed-%d-%s" seed (R.rule_name rule))
            rule net)
        deadlock_rules;
      check_identity_rule_safety
        ~label:(Printf.sprintf "seed-%d-identity-safety" seed)
        net)

(* --- Rule-specific unit nets: must fire / must not fire ---------------- *)

let sizes (net : Net.t) = (net.n_places, net.n_transitions)

let expect_sizes ~label r expected =
  if sizes r.R.net <> expected then
    Failure_dump.failf ~label r.R.original
      "expected reduction to %d places / %d transitions, got %d / %d"
      (fst expected) (snd expected) r.R.net.Net.n_places
      r.R.net.Net.n_transitions

let expect_identity ~label r =
  if not (R.is_identity r) then
    Failure_dump.failf ~label r.R.original
      "rule fired on a net without its pattern: %a" R.pp_summary r

let dead_transition_units () =
  (* Criterion (a): an input place with no producers, initially empty. *)
  let b = B.create "dead-producerless" in
  let p0 = B.place b ~marked:true "p0" in
  let p1 = B.place b "p1" in
  ignore (B.transition b "live" ~pre:[ p0 ] ~post:[]);
  ignore (B.transition b "dead" ~pre:[ p1 ] ~post:[ p0 ]);
  let net = B.build b in
  let r = R.run ~rules:[ R.Dead_transition ] net in
  expect_sizes ~label:"dead-producerless" r (2, 1);
  (* Criterion (b): a P-semiflow bound.  y = (1,1,1) caps the token
     count at 1, so the transition needing p0 and p1 at once is dead —
     and only the semiflow sees it: both places have producers. *)
  let b = B.create "dead-semiflow" in
  let p0 = B.place b ~marked:true "p0" in
  let p1 = B.place b "p1" in
  let p2 = B.place b "p2" in
  ignore (B.transition b "move" ~pre:[ p0 ] ~post:[ p1 ]);
  ignore (B.transition b "back" ~pre:[ p1 ] ~post:[ p0 ]);
  ignore (B.transition b "both" ~pre:[ p0; p1 ] ~post:[ p2; p0 ]);
  let net = B.build b in
  let r = R.run ~rules:[ R.Dead_transition ] net in
  expect_sizes ~label:"dead-semiflow" r (3, 2);
  (* Must not fire: every transition of nsdp-2 can fire. *)
  expect_identity ~label:"dead-not"
    (R.run ~rules:[ R.Dead_transition ] (Models.Nsdp.make 2))

let unread_place_units () =
  let b = B.create "unread" in
  let p0 = B.place b ~marked:true "p0" in
  let p1 = B.place b "sink" in
  ignore (B.transition b "t" ~pre:[ p0 ] ~post:[ p1 ]);
  let net = B.build b in
  let r = R.run ~rules:[ R.Unread_place ] net in
  expect_sizes ~label:"unread" r (1, 1);
  (* Must not fire: nsdp reads every place. *)
  expect_identity ~label:"unread-not"
    (R.run ~rules:[ R.Unread_place ] (Models.Nsdp.make 2))

let constant_place_units () =
  let b = B.create "constant" in
  let p0 = B.place b ~marked:true "p0" in
  let c = B.place b ~marked:true "const" in
  let p1 = B.place b "p1" in
  ignore (B.transition b "t" ~pre:[ c; p0 ] ~post:[ c; p1 ]);
  ignore (B.transition b "u" ~pre:[ c; p1 ] ~post:[ c; p0 ]);
  let net = B.build b in
  let r = R.run ~rules:[ R.Constant_place ] net in
  expect_sizes ~label:"constant" r (2, 2);
  (* Must not fire: [c] unmarked is not constant. *)
  let b = B.create "constant-not" in
  let p0 = B.place b ~marked:true "p0" in
  let c = B.place b "const" in
  let p1 = B.place b "p1" in
  ignore (B.transition b "t" ~pre:[ c; p0 ] ~post:[ c; p1 ]);
  ignore (B.transition b "fill" ~pre:[ p0 ] ~post:[ c ]);
  ignore (B.transition b "u" ~pre:[ p1 ] ~post:[ p0 ]);
  expect_identity ~label:"constant-not"
    (R.run ~rules:[ R.Constant_place ] (B.build b))

let duplicate_place_units () =
  let b = B.create "dup-place" in
  let p0 = B.place b ~marked:true "p0" in
  let q1 = B.place b "copy1" in
  let q2 = B.place b "copy2" in
  ignore (B.transition b "t" ~pre:[ p0 ] ~post:[ q1; q2 ]);
  ignore (B.transition b "u" ~pre:[ q1; q2 ] ~post:[ p0 ]);
  let net = B.build b in
  let r = R.run ~rules:[ R.Duplicate_place ] net in
  expect_sizes ~label:"dup-place" r (2, 2);
  (* Must not fire: different initial markings are not duplicates. *)
  let b = B.create "dup-place-not" in
  let p0 = B.place b ~marked:true "p0" in
  let q1 = B.place b ~marked:true "copy1" in
  let q2 = B.place b "copy2" in
  ignore (B.transition b "t" ~pre:[ p0 ] ~post:[ q1; q2 ]);
  ignore (B.transition b "u" ~pre:[ q1; q2 ] ~post:[ p0 ]);
  expect_identity ~label:"dup-place-not"
    (R.run ~rules:[ R.Duplicate_place ] (B.build b))

let duplicate_transition_units () =
  let b = B.create "dup-trans" in
  let p0 = B.place b ~marked:true "p0" in
  let p1 = B.place b "p1" in
  ignore (B.transition b "t" ~pre:[ p0 ] ~post:[ p1 ]);
  ignore (B.transition b "t-again" ~pre:[ p0 ] ~post:[ p1 ]);
  ignore (B.transition b "u" ~pre:[ p1 ] ~post:[ p0 ]);
  let net = B.build b in
  let r = R.run ~rules:[ R.Duplicate_transition ] net in
  expect_sizes ~label:"dup-trans" r (2, 2);
  expect_identity ~label:"dup-trans-not"
    (R.run ~rules:[ R.Duplicate_transition ] (Models.Nsdp.make 2))

let identity_transition_units () =
  let b = B.create "identity" in
  let p0 = B.place b ~marked:true "p0" in
  let p1 = B.place b "p1" in
  ignore (B.transition b "noop" ~pre:[ p0 ] ~post:[ p0 ]);
  ignore (B.transition b "t" ~pre:[ p0 ] ~post:[ p1 ]);
  let net = B.build b in
  let r = R.run ~query:R.Safety ~rules:[ R.Identity_transition ] net in
  expect_sizes ~label:"identity" r (2, 1);
  (* The rule is safety-only: a deadlock-query run must filter it out
     even when asked for explicitly — removing the self-loop could
     fabricate a deadlock. *)
  expect_identity ~label:"identity-deadlock-filtered"
    (R.run ~query:R.Deadlock ~rules:[ R.Identity_transition ] net)

let agglomeration_units () =
  let b = B.create "agglo" in
  let p0 = B.place b ~marked:true "p0" in
  let mid = B.place b "mid" in
  let p2 = B.place b "end" in
  ignore (B.transition b "a" ~pre:[ p0 ] ~post:[ mid ]);
  ignore (B.transition b "b" ~pre:[ mid ] ~post:[ p2 ]);
  let net = B.build b in
  let r = R.run ~rules:[ R.Agglomeration ] net in
  expect_sizes ~label:"agglo" r (2, 1);
  (match R.lift r [ 0 ] with
  | [ 0; 1 ] -> ()
  | lifted ->
      Failure_dump.failf ~trace:lifted ~label:"agglo" net
        "fused transition lifts to the wrong sequence");
  if not (Trace.is_valid net (R.lift r [ 0 ])) then
    Failure_dump.failf ~label:"agglo" net "lifted a;b does not replay";
  (* Must not fire: an initially marked intermediate place breaks the
     pendency invariant. *)
  let b = B.create "agglo-not" in
  let p0 = B.place b ~marked:true "p0" in
  let mid = B.place b ~marked:true "mid" in
  let p2 = B.place b "end" in
  ignore (B.transition b "a" ~pre:[ p0 ] ~post:[ mid ]);
  ignore (B.transition b "b" ~pre:[ mid ] ~post:[ p2 ]);
  expect_identity ~label:"agglo-not"
    (R.run ~rules:[ R.Agglomeration ] (B.build b));
  (* On rw-3 the serial reading.i chains fuse: startR.0;endR.0 becomes
     one transition named after both halves. *)
  let rw = Models.Rw.make 3 in
  let r = R.run ~rules:[ R.Agglomeration ] rw in
  match Net.transition_index r.R.net "startR.0+endR.0" with
  | _ -> ()
  | exception Not_found ->
      Failure_dump.failf ~label:"agglo-rw" rw
        "expected fused transition startR.0+endR.0 in the reduced net"

(* --- Protection and degradation --------------------------------------- *)

let protect_survives () =
  List.iter
    (fun (net : Net.t) ->
      let all_places = List.init net.n_places Fun.id in
      let protect = List.filteri (fun i _ -> i mod 2 = 0) all_places in
      let r = R.run ~query:R.Safety ~protect net in
      List.iter
        (fun p ->
          match R.place_image r p with
          | Some p' ->
              if
                not
                  (String.equal (Net.place_name net p)
                     (Net.place_name r.R.net p'))
              then
                Failure_dump.failf ~label:(net.name ^ "-protect") net
                  "protected place %s maps to differently-named %s"
                  (Net.place_name net p)
                  (Net.place_name r.R.net p')
          | None ->
              Failure_dump.failf ~label:(net.name ^ "-protect") net
                "protected place %s was removed" (Net.place_name net p))
        protect)
    Test_conformance.zoo

let suite =
  [
    Alcotest.test_case "rule units: dead transition" `Quick
      dead_transition_units;
    Alcotest.test_case "rule units: unread place" `Quick unread_place_units;
    Alcotest.test_case "rule units: constant place" `Quick constant_place_units;
    Alcotest.test_case "rule units: duplicate place" `Quick
      duplicate_place_units;
    Alcotest.test_case "rule units: duplicate transition" `Quick
      duplicate_transition_units;
    Alcotest.test_case "rule units: identity transition" `Quick
      identity_transition_units;
    Alcotest.test_case "rule units: agglomeration" `Quick agglomeration_units;
    Alcotest.test_case "protected places survive" `Quick protect_survives;
    Alcotest.test_case "zoo: engines agree, witnesses lift" `Quick zoo_pipeline;
    Alcotest.test_case "zoo: each rule alone preserves its query" `Quick
      per_rule_zoo;
    Alcotest.test_case "random: engines agree, witnesses lift" `Slow
      random_pipeline;
    Alcotest.test_case "random: each rule alone preserves its query" `Slow
      per_rule_random;
  ]
