(* Chaos suite: run every engine under a seeded fault-injection
   schedule (simulated allocation failures, delays and cancellation
   storms at the hot-loop probe points) and check the degradation
   contract:

   - an engine may stop early and report an inconclusive (non-Completed)
     partial result, or unwind with [Par.Cancel.Cancelled];
   - a run that claims [Completed] really covered its state space, so
     on a deadlocking net a clean "holds" out of a completed run is a
     bug (an unearned verdict is precisely what governance must never
     fabricate);
   - a reported violation is trustworthy even out of a faulty run: its
     witness, when reconstruction survived, must certify by independent
     replay;
   - no false deadlock is ever reported on a deadlock-free net.

   The seed count comes from GPO_FAULT_SEEDS (default 40); every seed
   replays the exact same fault schedule, so failures (dumped through
   [Failure_dump]) reproduce deterministically. *)

module E = Harness.Engine
module C = Harness.Certify

let fault_seeds () =
  match Sys.getenv_opt "GPO_FAULT_SEEDS" with
  | None -> 40
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> 40)

(* One engine run under faults.  [expect_deadlock] is the ground truth
   for the net (established fault-free by the conformance suite). *)
let chaos_run ~label ~expect_deadlock net seed kind =
  match
    Guard.Fault.with_faults ~rate:0.02 seed (fun () ->
        E.run ~max_states:200_000 ~witness:true ~gpo_scan:true kind net)
  with
  | exception Par.Cancel.Cancelled ->
      (* A cancellation storm unwound the whole run: acceptable, the
         caller (portfolio, CLI) owns that contract. *)
      ()
  | o ->
      if o.E.stop = Guard.Completed && not o.E.deadlock then begin
        (* A clean "holds" claims exhaustive coverage.  Injected faults
           must never fabricate that on a net that does deadlock. *)
        if expect_deadlock then
          Failure_dump.failf ~label net
            "%s reported a clean completed run on a deadlocking net \
             (seed %d)"
            (E.name kind) seed
      end;
      if o.E.deadlock then begin
        if not expect_deadlock then
          Failure_dump.failf ?trace:o.E.witness ~label net
            "%s reported a deadlock on a deadlock-free net (seed %d)"
            (E.name kind) seed;
        (* A violation found under faults still certifies, when witness
           reconstruction survived the schedule. *)
        match o.E.witness with
        | None -> ()
        | Some _ -> (
            match C.deadlock net o with
            | C.Certified _ -> ()
            | v ->
                Failure_dump.failf ?trace:o.E.witness ~label net
                  "%s witness found under faults failed certification \
                   (%a, seed %d)"
                  (E.name kind) (C.pp net) v seed)
      end
      else if E.truncated o then
        (* A faulted-out clean run must classify as inconclusive, never
           as holding. *)
        let q = { Harness.Query.net; target = net; property = None } in
        match Harness.Query.classify q o with
        | _, Harness.Query.Inconclusive _ -> ()
        | _ ->
            Failure_dump.failf ~label net
              "%s: partial clean run did not map to inconclusive (seed %d)"
              (E.name kind) seed

let chaos_sweep () =
  let n = fault_seeds () in
  let nets =
    [ (Models.Nsdp.make 4, true); (Models.Over.make 3, false) ]
  in
  Failure_dump.iter_seeds ~n (fun seed ->
      List.iter
        (fun (net, expect_deadlock) ->
          List.iter
            (fun kind ->
              let label =
                Printf.sprintf "chaos-%s-%s-seed-%d" net.Petri.Net.name
                  (Failure_dump.slug (E.name kind))
                  seed
              in
              chaos_run ~label ~expect_deadlock net seed kind)
            E.all)
        nets);
  Guard.Fault.disable ()

(* ------------------------------------------------------------------ *)
(* Cancellation in the middle of witness reconstruction: the walk-back
   loops poll the token, unwind with Cancelled, and no partial witness
   escapes as an outcome. *)

let cancelled_token () =
  let token = Par.Cancel.create () in
  Par.Cancel.cancel token;
  token

let explicit_witness_cancellable () =
  let net = Models.Nsdp.make 4 in
  List.iter
    (fun r ->
      match r.Petri.Reachability.deadlocks with
      | [] -> Alcotest.fail "nsdp-4 must retain a deadlock witness"
      | m :: _ -> (
          match
            Petri.Reachability.trace_to ~cancel:(cancelled_token ()) r m
          with
          | _ -> Alcotest.fail "cancelled witness walk returned a trace"
          | exception Par.Cancel.Cancelled -> ()))
    [
      Petri.Reachability.explore ~traces:true net;
      Petri.Stubborn.explore ~traces:true net;
    ]

let gpo_witness_cancellable () =
  let r = Gpn.Explorer.analyse (Models.Nsdp.make 4) in
  match r.Gpn.Explorer.deadlocks with
  | [] -> Alcotest.fail "nsdp-4 must produce a gpo witness"
  | w :: _ -> (
      match Gpn.Explorer.deadlock_trace ~cancel:(cancelled_token ()) r w with
      | _ -> Alcotest.fail "cancelled gpo witness walk returned a trace"
      | exception Par.Cancel.Cancelled -> ())

(* The symbolic walk is internal to [analyse]; a cancellation storm
   targeted at its probe site cancels reconstruction specifically (the
   fixpoint itself carries no faults). *)
let symbolic_witness_cancellable () =
  match
    Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Cancel ]
      ~sites:[ "smv.witness" ] 3 (fun () ->
        Bddkit.Symbolic.analyse ~witness:true (Models.Nsdp.make 4))
  with
  | _ -> Alcotest.fail "cancelled symbolic reconstruction returned"
  | exception Par.Cancel.Cancelled -> ()

(* Through the uniform engine layer: a storm on the witness sites must
   surface as Cancelled (the portfolio contract), never as an outcome
   with a half-built witness attached. *)
let engine_witness_storms () =
  let net = Models.Nsdp.make 4 in
  List.iter
    (fun (kind, site) ->
      match
        Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Cancel ]
          ~sites:[ site ] 5 (fun () ->
            E.run ~max_states:200_000 ~witness:true ~gpo_scan:true kind net)
      with
      | o ->
          if o.E.witness <> None then
            Alcotest.failf "%s: partial witness escaped a cancellation storm"
              (E.name kind)
      | exception Par.Cancel.Cancelled -> ())
    [
      (E.Full, "reach.witness");
      (E.Stubborn, "reach.witness");
      (E.Symbolic, "smv.witness");
      (E.Gpo, "gpo.witness");
    ]

(* ------------------------------------------------------------------ *)
(* Reduction under faults.  The pipeline's degradation contract is
   all-or-nothing: an allocation failure inside a rule pass abandons
   reduction entirely (the engine then analyses the original net), a
   cancellation storm unwinds, and in no case does a half-reduced net
   or a stale inverse mapping reach an engine. *)

let reduce_degrades_to_identity () =
  let net = Models.Rw.make 6 in
  let r =
    Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Oom ]
      ~sites:[ "reduce.rule" ] 7 (fun () -> Reduce.run net)
  in
  if not r.Reduce.degraded then
    Alcotest.fail "oom storm in a rule pass did not mark the result degraded";
  if not (Reduce.is_identity r) then
    Alcotest.fail "degraded reduction must hand back the original net";
  if r.Reduce.applied <> [] then
    Alcotest.fail "degraded reduction reported applied rules"

let reduce_cancellable () =
  match
    Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Cancel ]
      ~sites:[ "reduce.rule" ] 11 (fun () -> Reduce.run (Models.Rw.make 6))
  with
  | _ -> Alcotest.fail "cancelled reduction returned a result"
  | exception Par.Cancel.Cancelled -> ()

(* An engine asked to reduce keeps its verdict contract when the
   reduction itself is the faulty component: the storm forces the
   degraded-identity path, and the run must come back correct and
   certified against the (un)reduced net. *)
let engine_survives_reduce_storm () =
  let net = Models.Nsdp.make 4 in
  List.iter
    (fun kind ->
      let o =
        Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Oom ]
          ~sites:[ "reduce.rule" ] 13 (fun () ->
            E.run ~max_states:200_000 ~witness:true ~gpo_scan:true
              ~reduce:true kind net)
      in
      if not o.E.deadlock then
        Alcotest.failf "%s missed the nsdp-4 deadlock under a reduce storm"
          (E.name kind);
      match C.deadlock net o with
      | C.Certified _ -> ()
      | v ->
          Failure_dump.failf ?trace:o.E.witness ~label:"reduce-storm" net
            "%s witness failed certification under a reduce storm: %a"
            (E.name kind) (C.pp net) v)
    E.all

(* Seeded mixed sweep with the storm aimed only at the reduction probe
   site: the standard chaos contract must hold for reduced runs too. *)
let reduce_chaos_sweep () =
  let n = fault_seeds () in
  let nets = [ (Models.Nsdp.make 4, true); (Models.Over.make 3, false) ] in
  Failure_dump.iter_seeds ~n (fun seed ->
      List.iter
        (fun ((net : Petri.Net.t), expect_deadlock) ->
          List.iter
            (fun kind ->
              let label =
                Printf.sprintf "reduce-chaos-%s-%s-seed-%d" net.name
                  (Failure_dump.slug (E.name kind))
                  seed
              in
              match
                Guard.Fault.with_faults ~rate:0.2 ~sites:[ "reduce.rule" ]
                  seed (fun () ->
                    E.run ~max_states:200_000 ~witness:true ~gpo_scan:true
                      ~reduce:true kind net)
              with
              | exception Par.Cancel.Cancelled -> ()
              | o ->
                  if
                    o.E.stop = Guard.Completed && (not o.E.deadlock)
                    && expect_deadlock
                  then
                    Failure_dump.failf ~label net
                      "%s reported a clean completed run on a deadlocking \
                       net (seed %d)"
                      (E.name kind) seed;
                  if o.E.deadlock then begin
                    if not expect_deadlock then
                      Failure_dump.failf ?trace:o.E.witness ~label net
                        "%s reported a deadlock on a deadlock-free net \
                         (seed %d)"
                        (E.name kind) seed;
                    match o.E.witness with
                    | None -> ()
                    | Some _ -> (
                        match C.deadlock net o with
                        | C.Certified _ -> ()
                        | v ->
                            Failure_dump.failf ?trace:o.E.witness ~label net
                              "%s lifted witness failed certification under \
                               faults (%a, seed %d)"
                              (E.name kind) (C.pp net) v seed)
                  end)
            E.all)
        nets);
  Guard.Fault.disable ()

let suite =
  [
    Alcotest.test_case "seeded chaos sweep, all engines" `Slow chaos_sweep;
    Alcotest.test_case "reduction degrades to identity on oom" `Quick
      reduce_degrades_to_identity;
    Alcotest.test_case "reduction cancellable" `Quick reduce_cancellable;
    Alcotest.test_case "engines survive a reduce storm" `Quick
      engine_survives_reduce_storm;
    Alcotest.test_case "seeded reduce chaos sweep" `Slow reduce_chaos_sweep;
    Alcotest.test_case "explicit witness walk cancellable" `Quick
      explicit_witness_cancellable;
    Alcotest.test_case "gpo witness walk cancellable" `Quick
      gpo_witness_cancellable;
    Alcotest.test_case "symbolic witness walk cancellable" `Quick
      symbolic_witness_cancellable;
    Alcotest.test_case "no partial witness under storms" `Quick
      engine_witness_storms;
  ]
