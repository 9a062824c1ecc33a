(* Multicore execution: the par primitives, the engine layer's
   worker-count invariance, the wave-parallel GPN explorer against its
   sequential run, and the racing portfolio.

   The load-bearing property is that the worker count never changes an
   answer: [Result_cache.key] leaves [jobs] out on that promise. *)

module R = Petri.Reachability
module E = Harness.Engine

(* Run the parallel suites with a few workers even on small hosts: the
   scheduler interleaves domains on one core, which still exercises the
   wave fan-out and the striped interning tables. *)
let par_jobs = 4

(* [Counter.make] interns by name, so this is the very cell the guard
   library increments — the tests read the cancellation handshake off
   it. *)
let c_cancel_trips = Gpo_obs.Counter.make "guard.cancel.trips"

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)

let pool_map_preserves_order () =
  Par.Pool.with_pool ~jobs:par_jobs (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "map is an order-preserving parallel map"
        (List.map (fun x -> (x * x) + 1) xs)
        (Par.Pool.map pool (fun x -> (x * x) + 1) xs))

let pool_rethrows_after_finishing () =
  let ran = Atomic.make 0 in
  Par.Pool.with_pool ~jobs:par_jobs (fun pool ->
      (match
         Par.Pool.run pool
           (List.init 8 (fun i () ->
                if i = 3 then failwith "boom" else Atomic.incr ran))
       with
      | () -> Alcotest.fail "expected the thunk exception to propagate"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
      (* Every non-throwing thunk still ran: one failure does not
         abandon the batch. *)
      Alcotest.(check int) "other thunks completed" 7 (Atomic.get ran);
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int))
        "pool is reusable" [ 2; 4 ]
        (Par.Pool.map pool (fun x -> 2 * x) [ 1; 2 ]))

(* Cancellation is a guard trip shared through [?parent]: one trip on
   a guard stops every guard below it, and is counted once. *)
let cancellation_handshake () =
  let root = Guard.create () in
  let child = Guard.create ~parent:root () in
  Guard.poll_now child;
  (* does not raise *)
  let before = Gpo_obs.Counter.value c_cancel_trips in
  Guard.trip root Guard.Cancelled;
  Guard.trip root Guard.Cancelled;
  (* idempotent *)
  Alcotest.(check int) "trip counted once" (before + 1)
    (Gpo_obs.Counter.value c_cancel_trips);
  Alcotest.(check bool) "child sees the ancestor's trip" true
    (Guard.stop child = Guard.Cancelled);
  (match Guard.poll child with
  | () -> Alcotest.fail "poll below a cancelled guard must raise"
  | exception Guard.Interrupted Guard.Cancelled -> ());
  match Guard.check_cancelled ~guard:child () with
  | () -> Alcotest.fail "witness walks must see the cancellation"
  | exception Guard.Interrupted Guard.Cancelled -> ()

(* A cancelled engine run returns at once: with the guard tripped up
   front, every engine stops [Cancelled] before its first expansion. *)
let engine_runs_are_cancellable () =
  List.iter
    (fun kind ->
      let guard = Guard.create () in
      Guard.trip guard Guard.Cancelled;
      let o = E.run ~guard kind (Models.Scheduler.make 6) in
      Alcotest.(check string)
        (E.name kind ^ " stop")
        "cancelled"
        (Guard.string_of_stop o.E.stop);
      Alcotest.(check bool)
        (E.name kind ^ " stopped before expanding")
        true (o.E.states <= 1.))
    E.all

(* ------------------------------------------------------------------ *)
(* Worker-count invariance                                             *)

(* [~jobs] sets the GPO wave workers; the explicit engines run on one
   domain.  Either way the outcome is the [jobs = 1] one: the same
   metric, verdict, stop reason and the identical witness. *)
let engine_layer_jobs () =
  List.iter
    (fun (net : Petri.Net.t) ->
      List.iter
        (fun kind ->
          let s = E.run ~witness:true kind net in
          let p = E.run ~witness:true ~jobs:par_jobs kind net in
          let what field =
            Printf.sprintf "%s/%s %s" net.name (E.name kind) field
          in
          Alcotest.(check (float 0.0)) (what "states") s.states p.states;
          Alcotest.(check (float 0.0)) (what "metric") s.metric p.metric;
          Alcotest.(check bool) (what "verdict") s.deadlock p.deadlock;
          Alcotest.(check bool) (what "stop") true (s.stop = p.stop);
          Alcotest.(check (option (list int)))
            (what "witness") s.witness p.witness;
          if p.deadlock then
            match Harness.Certify.deadlock net p with
            | Harness.Certify.Certified _ -> ()
            | v ->
                Alcotest.failf "%s witness not certified: %a" (what "jobs")
                  (Harness.Certify.pp net) v)
        [ E.Full; E.Stubborn; E.Gpo ])
    [
      Models.Nsdp.make 3;
      Models.Nsdp.make 4;
      Models.Over.make 3;
      Models.Scheduler.make 4;
    ]

(* ------------------------------------------------------------------ *)
(* Differential: sequential vs parallel GPN exploration.  The wave
   design makes jobs=1 and jobs=N bit-identical by construction on any
   run that completes: walks are pure functions of the frozen
   between-waves snapshot, and the coordinator merges them in dequeue
   order.  The differential asserts exactly that — states, edges, run
   roots, witness markings and worlds, reconstructed traces, stop
   reason. *)

module G = Gpn.Explorer

let same_gpo_results ~label net (seq : G.result) (par : G.result) =
  if seq.G.states <> par.G.states then
    Failure_dump.failf ~label net "gpo par states %d <> seq %d" par.G.states
      seq.G.states;
  if seq.G.edges <> par.G.edges then
    Failure_dump.failf ~label net "gpo par edges %d <> seq %d" par.G.edges
      seq.G.edges;
  if seq.G.stop <> par.G.stop then
    Failure_dump.failf ~label net "gpo stop reasons differ";
  if List.length seq.G.runs <> List.length par.G.runs then
    Failure_dump.failf ~label net "gpo par runs %d <> seq %d"
      (List.length par.G.runs) (List.length seq.G.runs);
  if
    not
      (List.for_all2
         (fun (a : G.run) (b : G.run) -> Petri.Bitset.equal a.G.root b.G.root)
         seq.G.runs par.G.runs)
  then Failure_dump.failf ~label net "gpo run roots differ";
  if List.length seq.G.deadlocks <> List.length par.G.deadlocks then
    Failure_dump.failf ~label net "gpo par witnesses %d <> seq %d"
      (List.length par.G.deadlocks)
      (List.length seq.G.deadlocks);
  List.iter2
    (fun (a : G.witness) (b : G.witness) ->
      if not (List.equal Petri.Bitset.equal a.G.markings b.G.markings) then
        Failure_dump.failf ~label net "gpo witness markings differ";
      if
        not
          (List.equal Petri.Bitset.equal
             (Gpn.World_set.elements a.G.worlds)
             (Gpn.World_set.elements b.G.worlds))
      then Failure_dump.failf ~label net "gpo witness worlds differ";
      let ta = G.deadlock_trace seq a and tb = G.deadlock_trace par b in
      if ta <> tb then
        Failure_dump.failf ~label net "gpo witness traces differ")
    seq.G.deadlocks par.G.deadlocks

let gpo_differential_zoo () =
  List.iter
    (fun (net : Petri.Net.t) ->
      let seq = G.analyse ~max_states:200_000 net in
      List.iter
        (fun jobs ->
          let par = G.analyse ~max_states:200_000 ~jobs net in
          same_gpo_results
            ~label:(Printf.sprintf "%s-gpo-jobs-%d" net.name jobs)
            net seq par)
        [ 2; par_jobs ])
    [
      Models.Figures.fig2 6;
      Models.Figures.fig3;
      Models.Figures.fig5;
      Models.Nsdp.make 4;
      Models.Asat.make 2;
      Models.Over.make 3;
      Models.Rw.make 4;
      Models.Scheduler.make 4;
    ]

let gpo_differential_random () =
  Failure_dump.iter_seeds ~n:(min 40 (Failure_dump.seed_count ())) (fun seed ->
      let net = Models.Random_net.generate seed in
      let seq = G.analyse ~max_states:50_000 net in
      let par = G.analyse ~max_states:50_000 ~jobs:par_jobs net in
      same_gpo_results ~label:(Printf.sprintf "gpo-par-seed-%d" seed) net seq
        par)

(* Injected delays perturb worker timing but not walk content, so the
   results stay bit-identical.  Injected cancellation storms may stop
   either side early ([stop = Cancelled], or an exception out of the
   unguarded set-up) — results are compared only when both complete (no
   storm fired; the fault-free schedules are then identical). *)
let gpo_differential_faults () =
  let net = Models.Over.make 3 in
  for seed = 0 to 9 do
    let with_kind kind jobs =
      match
        Guard.Fault.with_faults ~rate:0.05 ~kinds:[ kind ]
          ~sites:[ "gpo.step"; "worldset.op" ] seed (fun () ->
            G.analyse ~max_states:50_000 ~jobs net)
      with
      | r when r.G.stop = Guard.Completed -> Some r
      | _ | (exception Guard.Interrupted Guard.Cancelled) -> None
    in
    (match
       (with_kind Guard.Fault.Delay 1, with_kind Guard.Fault.Delay par_jobs)
     with
    | Some seq, Some par ->
        same_gpo_results
          ~label:(Printf.sprintf "gpo-delay-seed-%d" seed)
          net seq par
    | _ -> Alcotest.fail "delay faults must not stop the run");
    match
      (with_kind Guard.Fault.Cancel 1, with_kind Guard.Fault.Cancel par_jobs)
    with
    | Some seq, Some par ->
        same_gpo_results
          ~label:(Printf.sprintf "gpo-cancel-seed-%d" seed)
          net seq par
    | _ ->
        (* A storm stopped one side: acceptable, the run reports it. *)
        ()
  done

(* Truncation cannot stay bit-identical across jobs (walks race the
   state-budget tickets), but the stop classification must agree. *)
let gpo_differential_truncation () =
  (* asat(4) needs 14 GPO states, so a budget of 5 trips both sides. *)
  let net = Models.Asat.make 4 in
  let seq = G.analyse ~max_states:5 net in
  let par = G.analyse ~max_states:5 ~jobs:par_jobs net in
  Alcotest.(check bool) "sequential truncated" true (G.truncated seq);
  Alcotest.(check bool) "parallel truncated" true (G.truncated par);
  Alcotest.(check bool) "same stop reason" true (seq.G.stop = par.G.stop)

(* ------------------------------------------------------------------ *)
(* Portfolio                                                           *)

(* The winner's verdict must match exhaustive ground truth, its witness
   must certify, and the winner must have tripped the race guard (the
   [guard.cancel.trips] counter proves the handshake rather than
   trusting the join); [cancelled_losers] counts the entrants that
   stopped [Cancelled]. *)
let portfolio_matches_truth () =
  List.iter
    (fun (net : Petri.Net.t) ->
      let truth =
        (Petri.Reachability.explore net).deadlock_count > 0
      in
      Gpo_obs.reset ();
      let r = Harness.Portfolio.run ~witness:true net in
      Alcotest.(check bool)
        (net.name ^ ": portfolio verdict = exhaustive truth")
        truth r.outcome.E.deadlock;
      Alcotest.(check bool) (net.name ^ ": conclusive") true r.conclusive;
      (if r.outcome.E.deadlock then
         match Harness.Certify.deadlock net r.outcome with
         | Harness.Certify.Certified _ -> ()
         | v ->
             Alcotest.failf "%s: portfolio witness not certified: %a" net.name
               (Harness.Certify.pp net) v);
      Alcotest.(check bool)
        (net.name ^ ": winner tripped the race guard")
        true
        (Gpo_obs.Counter.value c_cancel_trips >= 1);
      Alcotest.(check int)
        (net.name ^ ": cancelled losers = entrants stopped Cancelled")
        (List.length (List.filter (fun (_, s) -> s = Guard.Cancelled) r.stops))
        r.cancelled_losers)
    [
      Models.Figures.fig2 5;
      Models.Nsdp.make 4;
      Models.Over.make 3;
      Models.Scheduler.make 4;
    ]

(* With every entrant given a budget too small to finish, the race has
   no conclusive winner: the report must say so (julie maps this to
   exit 2, never to a clean verdict). *)
let portfolio_inconclusive_when_truncated () =
  let net = Models.Scheduler.make 7 in
  let r =
    (* Two exhaustive entrants: the symbolic engine has no budget and
       the stubborn reduction finishes this net within 50 states, so
       either would legitimately conclude. *)
    Harness.Portfolio.run ~max_states:50 ~engines:[ E.Full; E.Full ] net
  in
  Alcotest.(check bool) "not conclusive" false r.conclusive;
  Alcotest.(check bool) "outcome flagged truncated" true
    (E.truncated r.outcome);
  (* Every entrant's stop is reported by kind. *)
  Alcotest.(check int) "one stop per entrant" 2 (List.length r.stops);
  List.iter
    (fun (_, stop) ->
      Alcotest.(check bool) "entrant stopped by the state budget" true
        (stop = Guard.State_budget))
    r.stops

(* A single-entrant portfolio degenerates to that engine's run. *)
let portfolio_single_entrant () =
  let net = Models.Nsdp.make 3 in
  let r = Harness.Portfolio.run ~engines:[ E.Stubborn ] net in
  let direct = E.run E.Stubborn net in
  Alcotest.(check bool) "same verdict" direct.deadlock r.outcome.E.deadlock;
  Alcotest.(check (float 0.0)) "same states" direct.states r.outcome.E.states;
  Alcotest.(check int) "no losers" 0 r.cancelled_losers

(* The shape of the parallel seeded test drivers: whole engine runs
   from several pool workers at once.  This exercises the domain safety
   of the engines themselves (interning, GPN serialisation, telemetry)
   and checks that concurrent runs stay deterministic. *)
let parallel_seed_driver () =
  let hits = Atomic.make 0 in
  Par.Pool.with_pool ~jobs:par_jobs (fun pool ->
      Par.Pool.iter pool
        (fun seed ->
          let net = Models.Random_net.generate seed in
          let a = R.explore ~max_states:20_000 net in
          let b = R.explore ~max_states:20_000 net in
          if a.states <> b.states || a.deadlock_count <> b.deadlock_count then
            Failure_dump.failf
              ~label:(Printf.sprintf "driver-seed-%d" seed)
              net "exploration not deterministic under concurrent runs";
          let g = Gpn.Explorer.analyse ~max_states:20_000 net in
          if (not (R.truncated a)) && not (Gpn.Explorer.truncated g) then
            if Gpn.Explorer.deadlock_free g <> (a.deadlock_count = 0) then
              Failure_dump.failf
                ~label:(Printf.sprintf "driver-seed-%d" seed)
                net "gpo verdict diverged when run from a pool worker";
          Atomic.incr hits)
        (List.init 8 Fun.id));
  Alcotest.(check int) "all seeds processed" 8 (Atomic.get hits)

let suite =
  [
    Alcotest.test_case "pool map preserves order" `Quick pool_map_preserves_order;
    Alcotest.test_case "pool rethrows after finishing" `Quick
      pool_rethrows_after_finishing;
    Alcotest.test_case "cancellation handshake" `Quick cancellation_handshake;
    Alcotest.test_case "engine runs are cancellable" `Quick
      engine_runs_are_cancellable;
    Alcotest.test_case "engine layer with jobs" `Quick engine_layer_jobs;
    Alcotest.test_case "gpo seq-vs-par differential (zoo)" `Quick
      gpo_differential_zoo;
    Alcotest.test_case "gpo seq-vs-par differential (random)" `Slow
      gpo_differential_random;
    Alcotest.test_case "gpo seq-vs-par under faults" `Quick
      gpo_differential_faults;
    Alcotest.test_case "gpo seq-vs-par truncation" `Quick
      gpo_differential_truncation;
    Alcotest.test_case "portfolio matches exhaustive truth" `Quick
      portfolio_matches_truth;
    Alcotest.test_case "portfolio inconclusive when all truncate" `Quick
      portfolio_inconclusive_when_truncated;
    Alcotest.test_case "portfolio single entrant" `Quick
      portfolio_single_entrant;
    Alcotest.test_case "parallel seed driver shape" `Quick parallel_seed_driver;
  ]
