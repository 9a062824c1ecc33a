(* Witness certification: every violation verdict must ship a firing
   sequence that checks out against the net semantics alone.

   The property, per engine and per net: if [Engine.run ~witness:true]
   answers [deadlock = true], then [Certify.deadlock] must accept the
   attached witness, and the acceptance is re-checked here from first
   principles — [Trace.is_valid], [Trace.final_marking], and
   [Semantics.is_deadlock] — so a bug in the checker itself cannot
   silently certify garbage.  Safety verdicts get the same treatment
   through the monitor construction and the witness projection.

   The suite also pins the shared verdict policy of [Harness.Query] (a
   truncated clean run is inconclusive, never "holds" — the regression
   behind julie's exit code 2; a rejected witness is untrusted) and
   every rejection path of the checker. *)

module E = Harness.Engine
module C = Harness.Certify
module Q = Harness.Query

let max_states = 150_000

(* ------------------------------------------------------------------ *)
(* Deadlock witnesses                                                  *)

(* Independent re-check of a [Certified] verdict; any engine claiming a
   deadlock without surviving it is a bug in that engine's witness
   reconstruction. *)
let check_deadlock_outcome ~label net (o : E.outcome) =
  if o.deadlock then begin
    match C.deadlock net o with
    | C.Certified { trace; final } ->
        if not (Petri.Trace.is_valid net trace) then
          Failure_dump.failf ~trace ~label net
            "%s: certified trace does not replay" (E.name o.kind);
        let reached = Petri.Trace.final_marking net trace in
        if not (Petri.Bitset.equal reached final) then
          Failure_dump.failf ~trace ~label net
            "%s: certified final marking is not the replay's" (E.name o.kind);
        if not (Petri.Semantics.is_deadlock net final) then
          Failure_dump.failf ~trace ~label net
            "%s: certified final marking is not dead" (E.name o.kind)
    | v ->
        Failure_dump.failf ?trace:o.witness ~label net
          "%s: deadlock verdict not certified: %a" (E.name o.kind) (C.pp net) v
  end

let check_net ~label net =
  List.iter
    (fun kind ->
      let o = E.run ~max_states ~witness:true ~gpo_scan:true kind net in
      check_deadlock_outcome ~label net o)
    E.all

let zoo_certification () =
  List.iter
    (fun (net : Petri.Net.t) -> check_net ~label:net.name net)
    [
      Models.Figures.fig1;
      Models.Figures.fig2 4;
      Models.Figures.fig3;
      Models.Figures.fig5;
      Models.Figures.fig7;
      Models.Nsdp.make 2;
      Models.Nsdp.make 4;
      Models.Asat.make 2;
      Models.Over.make 3;
      Models.Rw.make 3;
      Models.Scheduler.make 3;
    ]

let random_certification () =
  Failure_dump.iter_seeds (fun seed ->
      let net = Models.Random_net.generate seed in
      check_net ~label:(Printf.sprintf "certify-seed-%d" seed) net)

(* The symbolic witness comes from BFS frontier layers, so it is a
   shortest path to its final marking; the explicit BFS predecessor
   map gives another shortest path to the same marking.  Their lengths
   must agree exactly. *)
let symbolic_witness_is_shortest () =
  let net = Models.Nsdp.make 4 in
  let smv = E.run ~witness:true E.Symbolic net in
  match smv.witness with
  | None -> Alcotest.fail "symbolic found no witness on NSDP(4)"
  | Some tr ->
      let final = Petri.Trace.final_marking net tr in
      let full = Petri.Reachability.explore ~traces:true net in
      let shortest = Petri.Reachability.trace_to full final in
      Alcotest.(check int)
        "symbolic witness length = explicit BFS distance"
        (List.length shortest) (List.length tr)

(* ------------------------------------------------------------------ *)
(* Safety witnesses                                                    *)

(* Violated properties are manufactured from markings the net provably
   reaches (a dead marking found by exhaustive search); holding
   properties from pairs of local states of one component of the
   random product nets, which a single token can never cover. *)
let safety_certification () =
  let n = min 80 (Failure_dump.seed_count ()) in
  Failure_dump.iter_seeds ~n (fun seed ->
      let net = Models.Random_net.generate seed in
    let label = Printf.sprintf "safety-seed-%d" seed in
    let full = Petri.Reachability.explore ~max_states net in
    if not (Petri.Reachability.truncated full) then begin
      (* A property the net violates: cover the places of a reachable
         dead marking. *)
      (match full.deadlocks with
      | [] -> ()
      | dead :: _ ->
          let property =
            { Petri.Safety.name = "bad"; never_all = Petri.Bitset.elements dead }
          in
          let monitored = Petri.Safety.monitor net property in
          let o = E.run ~max_states ~witness:true ~gpo_scan:true E.Gpo monitored in
          if not o.E.deadlock then
            Failure_dump.failf ~label net
              "gpo missed a violated safety property (cover of a dead marking)";
          match C.safety net property o with
          | C.Certified { trace; final } ->
              if not (Petri.Trace.is_valid net trace) then
                Failure_dump.failf ~trace ~label net
                  "projected safety witness does not replay on the original net";
              if
                not
                  (Petri.Bitset.equal final (Petri.Trace.final_marking net trace))
              then
                Failure_dump.failf ~trace ~label net
                  "projected safety witness final marking mismatch";
              if not (Petri.Safety.covers property final) then
                Failure_dump.failf ~trace ~label net
                  "projected safety witness does not cover the bad places"
          | v ->
              Failure_dump.failf ?trace:o.E.witness ~label net
                "violated safety property not certified: %a" (C.pp net) v);
      (* A property the net satisfies: two local states of component 0
         are never simultaneously marked (one token per component). *)
      match
        ( Petri.Net.place_index net "c0.s0",
          Petri.Net.place_index net "c0.s1" )
      with
      | exception _ -> ()
      | p0, p1 ->
          let property = { Petri.Safety.name = "ok"; never_all = [ p0; p1 ] } in
          let monitored = Petri.Safety.monitor net property in
          let o = E.run ~max_states ~witness:true ~gpo_scan:true E.Gpo monitored in
          if E.truncated o then ()
          else begin
            match C.safety net property o with
            | C.Clean -> ()
            | v ->
                Failure_dump.failf ?trace:o.E.witness ~label net
                  "holding property (two states of one component) judged %a"
                  (C.pp net) v
          end
    end)

(* ------------------------------------------------------------------ *)
(* Verdict policy and rejection paths (unit tests)                    *)

let outcome ?(deadlock = false) ?(stop = Guard.Completed) ?witness kind : E.outcome
    =
  { kind; states = 0.; metric = 0.; deadlock; time_s = 0.; stop; witness }

(* The exit policy as a precedence table: Untrusted beats Violated,
   which beats Inconclusive and Failed, which beat Holds.  Every pair,
   in both orders, folds to the code of the higher-ranked class. *)
let exit_policy_precedence () =
  let ranked =
    [
      (Q.Untrusted, 2);
      (Q.Violated, 1);
      (Q.Inconclusive Guard.State_budget, 2);
      (Q.Failed "boom", 2);
      (Q.Holds, 0);
    ]
  in
  List.iteri
    (fun i (a, code_a) ->
      Alcotest.(check int)
        (Q.verdict_name a ^ " alone")
        code_a (Q.exit_code [ a ]);
      List.iteri
        (fun j (b, code_b) ->
          let want = if i <= j then code_a else code_b in
          let name x y = Q.verdict_name x ^ " with " ^ Q.verdict_name y in
          Alcotest.(check int) (name a b) want (Q.exit_code [ a; b ]);
          Alcotest.(check int) (name b a) want (Q.exit_code [ b; a ]))
        ranked)
    ranked;
  Alcotest.(check int) "no verdicts: holds vacuously" 0 (Q.exit_code []);
  (* The truncation regression behind exit code 2: a truncated
     exploration that found nothing is not a clean verdict, while a
     certified violation out of a truncated run still counts. *)
  let check msg want got =
    Alcotest.(check string) msg (Q.verdict_name want) (Q.verdict_name got)
  in
  check "exhaustive clean run: holds" Q.Holds
    (Q.verdict (outcome E.Full) ~certified:None);
  check "truncated clean run: inconclusive"
    (Q.Inconclusive Guard.State_budget)
    (Q.verdict (outcome ~stop:Guard.State_budget E.Full) ~certified:None);
  check "certified violation from a truncated run: violated" Q.Violated
    (Q.verdict
       (outcome ~deadlock:true ~stop:Guard.State_budget E.Full)
       ~certified:(Some true));
  check "violation stopped before its witness: inconclusive"
    (Q.Inconclusive Guard.Deadline)
    (Q.verdict (outcome ~deadlock:true ~stop:Guard.Deadline E.Full)
       ~certified:None);
  check "rejected witness: untrusted" Q.Untrusted
    (Q.verdict (outcome ~deadlock:true E.Full) ~certified:(Some false))

(* Doctored outcomes through [Query]: a deadlock question and a cover
   question each get a witness with a disabled step (hungry.0 cannot
   fire twice) and one that ends live (the empty witness stops at the
   initial marking).  Each is untrusted, and an untrusted verdict turns
   a batch with a genuine violation into exit 2. *)
let doctored_witnesses_untrusted () =
  let question cover =
    match Q.prepare ~cover (Q.Model { id = "nsdp"; size = 2 }) with
    | Ok q -> q
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (label, cover) ->
      let q = question cover in
      let genuine =
        snd (Q.classify q (E.run ~witness:true ~gpo_scan:true E.Gpo q.target))
      in
      Alcotest.(check int) (label ^ ": genuine violation exits 1") 1
        (Q.exit_code [ genuine ]);
      List.iter
        (fun (bad, witness) ->
          match Q.classify q (outcome ~deadlock:true ~witness E.Gpo) with
          | C.Rejected _, (Q.Untrusted as v) ->
              Alcotest.(check int)
                (Printf.sprintf "%s, %s: exit 2" label bad)
                2
                (Q.exit_code [ genuine; v ])
          | c, v ->
              Alcotest.failf "%s, %s: %a classified %s" label bad
                (C.pp q.net) c (Q.verdict_name v))
        [ ("disabled step", [ 0; 0 ]); ("ends live", []) ])
    [ ("deadlock", []); ("cover", [ "gotL.0"; "gotL.1" ]) ]

let rejection_paths () =
  let net = Models.Nsdp.make 2 in
  (* Claimed deadlock, no witness attached. *)
  (match C.deadlock net (outcome ~deadlock:true E.Full) with
  | C.Rejected C.No_witness -> ()
  | v -> Alcotest.failf "expected No_witness, got %a" (C.pp net) v);
  (* A witness that does not replay: hungry.0 cannot fire twice. *)
  (match C.deadlock net (outcome ~deadlock:true ~witness:[ 0; 0 ] E.Full) with
  | C.Rejected (C.Replay_failed _) -> ()
  | v -> Alcotest.failf "expected Replay_failed, got %a" (C.pp net) v);
  (* A witness that replays but ends in a live marking: the empty trace
     ends at the initial marking, where every philosopher can get
     hungry. *)
  (match C.deadlock net (outcome ~deadlock:true ~witness:[] E.Full) with
  | C.Rejected (C.Not_dead m) ->
      Alcotest.(check bool)
        "rejected marking is the initial one" true
        (Petri.Bitset.equal m net.Petri.Net.initial)
  | v -> Alcotest.failf "expected Not_dead, got %a" (C.pp net) v);
  (* Truncated clean outcome vs exhaustive clean outcome. *)
  (match C.deadlock net (outcome ~stop:Guard.State_budget E.Full) with
  | C.Inconclusive -> ()
  | v -> Alcotest.failf "expected Inconclusive, got %a" (C.pp net) v);
  match C.deadlock net (outcome E.Full) with
  | C.Clean -> ()
  | v -> Alcotest.failf "expected Clean, got %a" (C.pp net) v

let not_covering_path () =
  let net = Models.Nsdp.make 2 in
  let property =
    {
      Petri.Safety.name = "prop";
      never_all =
        [ Petri.Net.place_index net "gotL.0"; Petri.Net.place_index net "gotL.1" ];
    }
  in
  (* A monitored-net witness whose projection replays to a marking that
     does not cover the property: a single original firing (hungry.0 is
     transition 0 of the monitored net too — the monitor keeps original
     indices) followed by the violate transition index to end the cut. *)
  let violate = net.Petri.Net.n_transitions + 1 in
  match
    C.safety net property (outcome ~deadlock:true ~witness:[ 0; violate ] E.Full)
  with
  | C.Rejected (C.Not_covering m) ->
      Alcotest.(check bool)
        "non-covering marking indeed misses the cover" false
        (Petri.Safety.covers property m)
  | v -> Alcotest.failf "expected Not_covering, got %a" (C.pp net) v

(* The failure-artifact helper itself: a dumped net must reload, and
   the dumped trace must list transition names line by line. *)
let artifact_round_trip () =
  let net = Models.Nsdp.make 2 in
  let o = E.run ~witness:true E.Full net in
  let trace = Option.get o.E.witness in
  let base = Failure_dump.dump ~trace ~label:"round-trip probe" net in
  let reloaded = Petri.Parser.of_file (base ^ ".net") in
  Alcotest.(check int)
    "reloaded net has the same places" net.Petri.Net.n_places
    reloaded.Petri.Net.n_places;
  Alcotest.(check int)
    "reloaded net has the same transitions" net.Petri.Net.n_transitions
    reloaded.Petri.Net.n_transitions;
  Alcotest.(check bool)
    "witness replays on the reloaded net" true
    (Petri.Trace.is_valid reloaded trace);
  let ic = open_in (base ^ ".trace") in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Alcotest.(check (list string))
    "trace file lists transition names"
    (List.map (Petri.Net.transition_name net) trace)
    lines;
  (* Leave [test-failures/] empty on success so a populated directory
     always means a real failure. *)
  Sys.remove (base ^ ".net");
  Sys.remove (base ^ ".trace")

let suite =
  [
    Alcotest.test_case "zoo deadlock witnesses certify" `Quick zoo_certification;
    Alcotest.test_case "failure artifacts round-trip" `Quick artifact_round_trip;
    Alcotest.test_case "symbolic witness is shortest" `Quick
      symbolic_witness_is_shortest;
    Alcotest.test_case "exit policy precedence table" `Quick
      exit_policy_precedence;
    Alcotest.test_case "doctored witnesses are untrusted" `Quick
      doctored_witnesses_untrusted;
    Alcotest.test_case "rejection paths" `Quick rejection_paths;
    Alcotest.test_case "safety not-covering rejection" `Quick not_covering_path;
    Alcotest.test_case "random net witnesses certify" `Slow random_certification;
    Alcotest.test_case "random net safety certification" `Slow
      safety_certification;
  ]
