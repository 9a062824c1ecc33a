(* Tests for the resource-governance layer: typed stop reasons,
   deadline, memory and cancellation trips, pressure hooks, and the
   deterministic fault-injection schedule. *)

let stop_strings () =
  Alcotest.(check string) "completed" "completed"
    (Guard.string_of_stop Guard.Completed);
  Alcotest.(check string) "state_budget" "state_budget"
    (Guard.string_of_stop Guard.State_budget);
  Alcotest.(check string) "deadline" "deadline"
    (Guard.string_of_stop Guard.Deadline);
  Alcotest.(check string) "memory" "memory" (Guard.string_of_stop Guard.Memory);
  Alcotest.(check string) "cancelled" "cancelled"
    (Guard.string_of_stop Guard.Cancelled);
  Alcotest.(check string) "crashed" "crashed: boom"
    (Guard.string_of_stop (Guard.Crashed "boom"))

let deadline_trips () =
  let g = Guard.create ~deadline_s:0.0 () in
  (match Guard.poll_now g with
  | () -> Alcotest.fail "expired deadline did not trip"
  | exception Guard.Interrupted Guard.Deadline -> ()
  | exception Guard.Interrupted r ->
      Alcotest.failf "wrong reason %s" (Guard.string_of_stop r));
  (* Sticky: every later poll re-raises, including the masked one. *)
  (match Guard.poll g with
  | () -> Alcotest.fail "trip was not sticky"
  | exception Guard.Interrupted Guard.Deadline -> ());
  Alcotest.(check bool) "tripped recorded" true
    (Guard.tripped g = Some Guard.Deadline)

let generous_deadline_does_not_trip () =
  let g = Guard.create ~deadline_s:3600. () in
  for _ = 1 to 10_000 do
    Guard.poll g
  done;
  Alcotest.(check bool) "still clean" true (Guard.stop g = Guard.Completed)

let memory_trips () =
  (* Keep enough live data that the heap provably exceeds the budget,
     then poll: the direct heap check must trip. *)
  let ballast = Array.init (1 lsl 20) (fun i -> i) in
  let g = Guard.create ~mem_mb:4 () in
  (match Guard.poll_now g with
  | () -> Alcotest.fail "memory budget did not trip"
  | exception Guard.Interrupted Guard.Memory -> ());
  Alcotest.(check bool) "tripped recorded" true
    (Guard.tripped g = Some Guard.Memory);
  assert (Array.length ballast > 0)

let first_trip_wins () =
  let g = Guard.create () in
  Guard.trip g Guard.Deadline;
  Guard.trip g Guard.Memory;
  Alcotest.(check string) "first reason kept" "deadline"
    (Guard.string_of_stop (Guard.stop g))

(* An ancestor's recorded [Cancelled] is raised before the guard
   re-checks its own (expired) deadline. *)
let check_prefers_cancellation () =
  let parent = Guard.create () in
  Guard.trip parent Guard.Cancelled;
  let g = Guard.create ~parent ~deadline_s:0.0 () in
  match Guard.check_now ~guard:g () with
  | () -> Alcotest.fail "nothing raised"
  | exception Guard.Interrupted Guard.Cancelled -> ()
  | exception Guard.Interrupted r ->
      Alcotest.failf "own %s raised before the ancestor's cancellation"
        (Guard.string_of_stop r)

let pressure_hooks_run () =
  let hits = ref 0 in
  Guard.on_memory_pressure (fun () -> incr hits);
  Guard.on_memory_pressure (fun () -> failwith "hook failure is swallowed");
  Guard.relieve_memory ();
  Alcotest.(check bool) "hook ran" true (!hits >= 1)

(* Engines under a pre-expired deadline: partial result, typed reason,
   no exception escaping the engine entry point. *)
let engines_report_deadline () =
  let net = Models.Nsdp.make 6 in
  let expired () = Guard.create ~deadline_s:0.0 () in
  let r = Petri.Reachability.explore ~guard:(expired ()) net in
  Alcotest.(check bool) "explicit stopped by deadline" true
    (r.stop = Guard.Deadline);
  let r = Bddkit.Symbolic.analyse ~guard:(expired ()) net in
  Alcotest.(check bool) "symbolic stopped by deadline" true
    (r.stop = Guard.Deadline);
  let r = Gpn.Explorer.analyse ~guard:(expired ()) net in
  Alcotest.(check bool) "gpo stopped by deadline" true
    (r.stop = Guard.Deadline);
  let r = Petri.Stubborn.explore ~guard:(expired ()) net in
  Alcotest.(check bool) "stubborn stopped by deadline" true
    (r.stop = Guard.Deadline)

(* GPO's set-up builds r0, the product of the cluster alternatives:
   93 750 worlds on over-8.  The set-up polls the guard itself and the
   explorer polls before its first state, so an expired deadline stops
   the run within milliseconds and Engine.run reports it. *)
let gpo_setup_polls_guard () =
  let net = Models.Over.make 8 in
  let t0 = Unix.gettimeofday () in
  let guard = Guard.create ~deadline_s:0.0 () in
  let o = Harness.Engine.run ~guard Harness.Engine.Gpo net in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "stopped by deadline" true
    (o.Harness.Engine.stop = Guard.Deadline);
  Alcotest.(check bool)
    (Printf.sprintf "set-up stopped in %.3f s" elapsed)
    true (elapsed < 0.2)

let engine_run_degrades_on_oom () =
  (* A simulated allocation failure in the hot loop: Engine.run must
     recover to a degraded outcome, not crash and not report a verdict. *)
  let net = Models.Nsdp.make 4 in
  let o =
    Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Oom ]
      ~sites:[ "reach.step" ] 7 (fun () ->
        Harness.Engine.run ~max_states:10_000 Harness.Engine.Full net)
  in
  Alcotest.(check bool) "degraded to a memory stop" true
    (o.Harness.Engine.stop = Guard.Memory);
  Alcotest.(check bool) "no verdict claimed" false o.Harness.Engine.deadlock;
  Alcotest.(check bool) "flagged truncated" true (Harness.Engine.truncated o)

(* The fault schedule is a pure function of (seed, site, call index):
   replaying the same seed replays the same injections. *)
let fault_schedule_deterministic () =
  let schedule seed =
    let hits = ref [] in
    Guard.Fault.with_faults ~rate:0.05 ~kinds:[ Guard.Fault.Oom ] seed
      (fun () ->
        for i = 0 to 999 do
          match Guard.Fault.probe "test.site" with
          | () -> ()
          | exception Out_of_memory -> hits := i :: !hits
        done;
        List.rev !hits)
  in
  let a = schedule 42 in
  let b = schedule 42 in
  Alcotest.(check (list int)) "same seed, same schedule" a b;
  Alcotest.(check bool) "faults actually injected" true (List.length a > 0);
  let c = schedule 43 in
  Alcotest.(check bool) "rate is roughly honoured" true
    (List.length c < 200)

let fault_sites_filter () =
  Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Oom ]
    ~sites:[ "only.this" ] 1 (fun () ->
      (match Guard.Fault.probe "other.site" with
      | () -> ()
      | exception Out_of_memory -> Alcotest.fail "site filter ignored");
      match Guard.Fault.probe "only.this" with
      | () -> Alcotest.fail "rate 1.0 at an enabled site must inject"
      | exception Out_of_memory -> ())

let fault_budget () =
  Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Oom ]
    ~max_injections:3 11 (fun () ->
      let injected = ref 0 in
      for _ = 1 to 100 do
        match Guard.Fault.probe "budget.site" with
        | () -> ()
        | exception Out_of_memory -> incr injected
      done;
      Alcotest.(check int) "injection budget respected" 3 !injected;
      Alcotest.(check int) "counter agrees" 3 (Guard.Fault.injected ()))

let disabled_probe_is_silent () =
  Guard.Fault.disable ();
  Alcotest.(check bool) "disabled" false (Guard.Fault.enabled ());
  for _ = 1 to 1000 do
    Guard.Fault.probe "reach.step"
  done

let suite =
  [
    Alcotest.test_case "stop strings" `Quick stop_strings;
    Alcotest.test_case "deadline trips and sticks" `Quick deadline_trips;
    Alcotest.test_case "generous deadline is silent" `Quick
      generous_deadline_does_not_trip;
    Alcotest.test_case "memory budget trips" `Quick memory_trips;
    Alcotest.test_case "first trip wins" `Quick first_trip_wins;
    Alcotest.test_case "cancellation precedes guard" `Quick
      check_prefers_cancellation;
    Alcotest.test_case "pressure hooks run" `Quick pressure_hooks_run;
    Alcotest.test_case "all engines report deadline" `Quick
      engines_report_deadline;
    Alcotest.test_case "gpo set-up polls the guard" `Quick gpo_setup_polls_guard;
    Alcotest.test_case "Engine.run degrades on OOM" `Quick
      engine_run_degrades_on_oom;
    Alcotest.test_case "fault schedule deterministic" `Quick
      fault_schedule_deterministic;
    Alcotest.test_case "fault site filter" `Quick fault_sites_filter;
    Alcotest.test_case "fault injection budget" `Quick fault_budget;
    Alcotest.test_case "disabled probes are silent" `Quick
      disabled_probe_is_silent;
  ]
