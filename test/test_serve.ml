(* The verification service: content-addressed result cache soundness,
   batch scheduling (admission control, in-batch dedupe), per-job fault
   containment, and the wire protocol.

   The cache-identity sweeps assert the central service invariant: a
   cache hit returns the byte-identical Report JSON of the run that
   populated the entry, and never crosses engine configurations or
   semantics versions. *)

module P = Serve.Protocol
module S = Serve.Scheduler
module RC = Harness.Result_cache
module J = Gpo_obs.Json
module Q = Harness.Query

(* Scoped-capture metrics only record under an installed sink — run
   every scheduler test the way the server runs. *)
let with_sink f =
  if Gpo_obs.enabled () then f ()
  else begin
    Gpo_obs.install Gpo_obs.null_sink;
    Fun.protect ~finally:Gpo_obs.uninstall f
  end

let with_scheduler ?jobs ?queue_limit f =
  with_sink @@ fun () ->
  RC.invalidate ();
  let sched = S.create ?jobs ?queue_limit () in
  Fun.protect ~finally:(fun () -> S.shutdown sched) (fun () -> f sched)

let submit_one sched job =
  match S.submit sched [ job ] with
  | P.Results [ r ] -> r
  | P.Results rs ->
      Alcotest.failf "expected one result, got %d" (List.length rs)
  | P.Rejected _ -> Alcotest.fail "unexpected admission reject"
  | _ -> Alcotest.fail "unexpected scheduler response"

let report_string (r : P.job_result) =
  match r.report with
  | Some j -> J.to_string j
  | None -> Alcotest.failf "job %s: no report (status failed?)" r.id

let check_ok (r : P.job_result) =
  match r.status with
  | P.Ok -> ()
  | P.Failed msg -> Alcotest.failf "job %s failed: %s" r.id msg

(* The nets of the identity sweep: the model zoo (small instances of
   every family, deadlocking and clean) plus seeded random nets. *)
let zoo =
  [
    ("fig1", Models.Figures.fig1);
    ("fig2-4", Models.Figures.fig2 4);
    ("fig3", Models.Figures.fig3);
    ("fig5", Models.Figures.fig5);
    ("fig7", Models.Figures.fig7);
    ("nsdp-3", Models.Nsdp.make 3);
    ("over-3", Models.Over.make 3);
    ("rw-5", Models.Rw.make 5);
  ]

let engines = [ "full"; "po"; "smv"; "gpo" ]

(* ------------------------------------------------------------------ *)
(* Net digest                                                          *)

let test_digest_stable () =
  List.iter
    (fun (name, net) ->
      let d = Petri.Net.digest net in
      Alcotest.(check string)
        (name ^ " digest is deterministic")
        d
        (Petri.Net.digest net);
      (* The digest addresses content, so the parser round trip — a
         structurally identical net built from the rendering — keeps
         it. *)
      let reparsed = Petri.Parser.of_string (Petri.Parser.to_string net) in
      Alcotest.(check string)
        (name ^ " digest survives the parser round trip")
        d
        (Petri.Net.digest reparsed))
    zoo;
  let digests = List.map (fun (_, net) -> Petri.Net.digest net) zoo in
  Alcotest.(check int)
    "distinct nets have distinct digests"
    (List.length zoo)
    (List.length (List.sort_uniq compare digests))

(* ------------------------------------------------------------------ *)
(* Cache identity: hits are byte-identical to the populating run       *)

let check_hit_identity sched job fresh_net =
  let miss = submit_one sched job in
  check_ok miss;
  Alcotest.(check bool) "first submission is a miss" false miss.P.cached;
  let hit = submit_one sched job in
  check_ok hit;
  Alcotest.(check bool) "second submission is a hit" true hit.P.cached;
  Alcotest.(check string)
    "hit report is byte-identical to the populating run"
    (report_string miss) (report_string hit);
  (* The verdict also agrees with an independent fresh computation in
     the service configuration. *)
  (match (fresh_net, job.P.engine) with
  | Some net, ("full" | "po" | "smv" | "gpo") ->
      let kind =
        match job.P.engine with
        | "full" -> Harness.Engine.Full
        | "po" -> Harness.Engine.Stubborn
        | "smv" -> Harness.Engine.Symbolic
        | _ -> Harness.Engine.Gpo
      in
      let fresh =
        Harness.Engine.run ~max_states:job.P.max_states ~witness:job.P.witness
          ~gpo_scan:true kind net
      in
      let flag j name =
        match J.member name j with Some (J.Bool b) -> b | _ -> false
      in
      (match miss.P.report with
      | Some rj ->
          Alcotest.(check bool)
            "cached verdict agrees with a fresh run"
            fresh.Harness.Engine.deadlock (flag rj "deadlock")
      | None -> ())
  | _ -> ())

let test_cache_identity_zoo () =
  with_scheduler @@ fun sched ->
  List.iter
    (fun (name, net) ->
      let text = Petri.Parser.to_string net in
      List.iter
        (fun engine ->
          ignore name;
          let job = P.job ~engine (P.Inline text) in
          check_hit_identity sched job (Some net))
        engines)
    zoo

let test_cache_identity_random () =
  with_scheduler @@ fun sched ->
  for seed = 1 to 10 do
    let job = P.job ~engine:"gpo" (P.Model { id = "random"; size = seed }) in
    check_hit_identity sched job (Some (Models.Random_net.generate seed))
  done

let test_cache_identity_portfolio () =
  (* The portfolio races nondeterministically, so only the hit-identity
     half holds: whatever outcome won the populating run is what every
     hit returns. *)
  with_scheduler @@ fun sched ->
  let job = P.job ~engine:"portfolio" (P.Model { id = "nsdp"; size = 3 }) in
  check_hit_identity sched job None

(* ------------------------------------------------------------------ *)
(* Hits never cross configurations or semantics versions               *)

let test_no_cross_config_hits () =
  with_scheduler @@ fun sched ->
  let base = P.job ~engine:"gpo" (P.Model { id = "nsdp"; size = 3 }) in
  let first = submit_one sched base in
  Alcotest.(check bool) "base populates" false first.P.cached;
  (* Every variation of the engine configuration (or the property) is a
     different question: it must not be served from the base entry. *)
  let variants =
    [
      ("engine", { base with P.engine = "full" });
      ("max_states", { base with P.max_states = 100_000 });
      ("witness", { base with P.witness = false });
      ("reduce", { base with P.reduce = true });
      ("property", { base with P.cover = [ "think.0"; "askL.0" ] });
    ]
  in
  List.iter
    (fun (what, job) ->
      let r = submit_one sched job in
      check_ok r;
      Alcotest.(check bool)
        (Printf.sprintf "differing %s is not served from cache" what)
        false r.P.cached)
    variants;
  (* Same config again: still a hit, the variants did not evict it. *)
  let again = submit_one sched base in
  Alcotest.(check bool) "base entry survived" true again.P.cached

let test_semantics_version_isolates () =
  let digest = Petri.Net.digest (Models.Nsdp.make 3) in
  let key semantics =
    RC.key ~semantics ~digest ~engine:"gpo" ~max_states:1000 ~witness:true
      ~gpo_scan:true ~reduce:false ()
  in
  Alcotest.(check bool)
    "semantics stamp lands in the rendered key" true
    (Astring_contains.contains RC.semantics_version
       (RC.render (key RC.semantics_version)));
  with_sink @@ fun () ->
  RC.invalidate ();
  let o =
    Harness.Engine.run ~witness:true ~gpo_scan:true Harness.Engine.Gpo
      (Models.Nsdp.make 3)
  in
  Alcotest.(check bool) "outcome stored" true
    (RC.store (key RC.semantics_version) o);
  Alcotest.(check bool)
    "a bumped semantics version never sees old entries" true
    (RC.find (key "gpo-semantics-NEXT") = None);
  Alcotest.(check bool) "the original version still hits" true
    (RC.find (key RC.semantics_version) <> None)

let test_jobs_not_in_key () =
  (* Worker count is excluded from the key: the engines are
     bit-identical across worker counts, so jobs=2 may be served the
     jobs=1 result. *)
  with_scheduler @@ fun sched ->
  let j1 = P.job ~engine:"gpo" ~jobs:1 (P.Model { id = "nsdp"; size = 3 }) in
  let j2 = { j1 with P.jobs = 2 } in
  let first = submit_one sched j1 in
  check_ok first;
  let second = submit_one sched j2 in
  Alcotest.(check bool) "jobs=2 hits the jobs=1 entry" true second.P.cached;
  Alcotest.(check string) "and the reports are byte-identical"
    (report_string first) (report_string second)

(* ------------------------------------------------------------------ *)
(* Store refuses partial results; hits re-verify their witness         *)

let test_store_refuses_truncated () =
  with_sink @@ fun () ->
  RC.invalidate ();
  let net = Models.Nsdp.make 6 in
  let o =
    Harness.Engine.run ~max_states:50 ~gpo_scan:true Harness.Engine.Full net
  in
  Alcotest.(check bool) "the run was truncated" true
    (Harness.Engine.truncated o);
  let key =
    RC.key ~digest:(Petri.Net.digest net) ~engine:"full" ~max_states:50
      ~witness:false ~gpo_scan:true ~reduce:false ()
  in
  Alcotest.(check bool) "store refuses a truncated outcome" false
    (RC.store key o);
  Alcotest.(check bool) "nothing was cached" true (RC.find key = None)

let test_hit_reverification_evicts () =
  with_sink @@ fun () ->
  RC.invalidate ();
  let net = Models.Nsdp.make 3 in
  let o =
    Harness.Engine.run ~witness:true ~gpo_scan:true Harness.Engine.Gpo net
  in
  Alcotest.(check bool) "nsdp-3 deadlocks with a witness" true
    (o.Harness.Engine.deadlock && o.Harness.Engine.witness <> None);
  let key =
    RC.key ~digest:(Petri.Net.digest net) ~engine:"gpo" ~max_states:5_000_000
      ~witness:true ~gpo_scan:true ~reduce:false ()
  in
  (* A corrupted entry — its witness no longer replays — must be
     evicted on hit, not served. *)
  let corrupt = { o with Harness.Engine.witness = Some [ 0; 0; 0; 0; 0 ] } in
  Alcotest.(check bool) "corrupt entry stores (stop = Completed)" true
    (RC.store key corrupt);
  Alcotest.(check bool) "verified hit evicts the corrupt entry" true
    (RC.find ~verify_net:net key = None);
  Alcotest.(check int) "the entry is gone" 0 (RC.size ());
  (* The honest outcome passes the same gate. *)
  Alcotest.(check bool) "honest entry stores" true (RC.store key o);
  Alcotest.(check bool) "honest entry survives verification" true
    (RC.find ~verify_net:net key <> None)

let nsdp_query size =
  match Q.prepare (Q.Model { id = "nsdp"; size }) with
  | Ok q -> q
  | Error msg -> Alcotest.fail msg

(* A served cache hit is certified exactly once: the one classification
   decides both whether the hit is served and its [certified] field. *)
let test_hit_certifies_once () =
  with_scheduler @@ fun sched ->
  let accepted = Gpo_obs.Counter.make "certify.accepted" in
  let job = P.job ~engine:"gpo" (P.Model { id = "nsdp"; size = 3 }) in
  let miss = submit_one sched job in
  Alcotest.(check bool) "first answer is a certified miss" true
    ((not miss.P.cached) && miss.P.certified = Some true);
  let before = Gpo_obs.Counter.value accepted in
  let hit = submit_one sched job in
  Alcotest.(check bool) "repeat is a certified hit" true
    (hit.P.cached && hit.P.certified = Some true);
  Alcotest.(check int) "the hit replays its witness once" 1
    (Gpo_obs.Counter.value accepted - before)

(* A cached entry whose witness no longer certifies is evicted by the
   scheduler and the question re-run, never served. *)
let test_scheduler_evicts_rejected_hit () =
  with_scheduler @@ fun sched ->
  let job = P.job ~engine:"gpo" (P.Model { id = "nsdp"; size = 3 }) in
  let q = nsdp_query 3 in
  let budgets =
    { Q.max_states = job.P.max_states; jobs = 1; timeout_s = None;
      mem_mb = None }
  in
  let gpo = Q.Single Harness.Engine.Gpo in
  let key = Q.key ~witness:true ~reduce:false budgets gpo q in
  let o = Q.run ~witness:true ~reduce:false budgets gpo q in
  Alcotest.(check bool) "corrupt entry stores" true
    (RC.store key { o with Harness.Engine.witness = Some [ 0; 0; 0 ] });
  let r = submit_one sched job in
  Alcotest.(check bool) "the rejected hit is re-run, not served" false
    r.P.cached;
  Alcotest.(check bool) "the fresh answer certifies" true
    (r.P.certified = Some true);
  Alcotest.(check bool) "the honest outcome replaced the entry" true
    (RC.find ~verify_net:q.target key <> None)

let test_memory_pressure_invalidates () =
  with_sink @@ fun () ->
  RC.invalidate ();
  let gen = RC.generation () in
  let net = Models.Nsdp.make 3 in
  let o = Harness.Engine.run ~gpo_scan:true Harness.Engine.Gpo net in
  let key =
    RC.key ~digest:(Petri.Net.digest net) ~engine:"gpo" ~max_states:5_000_000
      ~witness:false ~gpo_scan:true ~reduce:false ()
  in
  Alcotest.(check bool) "stored" true (RC.store key o);
  Alcotest.(check int) "one entry" 1 (RC.size ());
  (* The cache registered with Guard.on_memory_pressure: a pressure
     event (mem budget trip recovery, Out_of_memory) sweeps it. *)
  Guard.relieve_memory ();
  Alcotest.(check int) "pressure swept the cache" 0 (RC.size ());
  Alcotest.(check bool) "generation bumped" true (RC.generation () > gen);
  Alcotest.(check bool) "no stale hit" true (RC.find key = None)

(* ------------------------------------------------------------------ *)
(* Admission control and dedupe                                        *)

let test_admission_control () =
  with_scheduler ~queue_limit:2 @@ fun sched ->
  let job n = P.job ~engine:"gpo" (P.Model { id = "fig2"; size = n }) in
  (match S.submit sched [ job 3; job 4; job 5 ] with
  | P.Rejected r ->
      Alcotest.(check string) "typed reason" "queue_full" r.P.reason;
      Alcotest.(check int) "limit" 2 r.P.limit;
      Alcotest.(check int) "batch" 3 r.P.batch;
      Alcotest.(check int) "depth at reject" 0 r.P.depth
  | _ -> Alcotest.fail "oversized batch must be rejected whole");
  Alcotest.(check int) "rejected batch leaves no residue" 0 (S.depth sched);
  (* A batch within the bound goes through afterwards. *)
  (match S.submit sched [ job 3; job 4 ] with
  | P.Results rs ->
      Alcotest.(check int) "both jobs answered" 2 (List.length rs);
      List.iter check_ok rs
  | _ -> Alcotest.fail "bounded batch must be admitted");
  Alcotest.(check int) "depth drains" 0 (S.depth sched)

let test_batch_dedupe () =
  with_scheduler @@ fun sched ->
  let j = P.job ~engine:"gpo" (P.Model { id = "nsdp"; size = 3 }) in
  let other = P.job ~engine:"gpo" (P.Model { id = "over"; size = 3 }) in
  match S.submit sched [ j; j; other; j ] with
  | P.Results [ a; b; c; d ] ->
      List.iter check_ok [ a; b; c; d ];
      Alcotest.(check bool) "first occurrence computes" false
        (a.P.cached || a.P.deduped);
      Alcotest.(check bool) "second occurrence is deduped" true b.P.deduped;
      Alcotest.(check bool) "distinct job is not deduped" false c.P.deduped;
      Alcotest.(check bool) "third occurrence is deduped" true d.P.deduped;
      Alcotest.(check string) "deduped report is byte-identical"
        (report_string a) (report_string b);
      Alcotest.(check bool) "results keep their slot ids" true
        (a.P.id = "job-0" && b.P.id = "job-1" && c.P.id = "job-2"
        && d.P.id = "job-3")
  | _ -> Alcotest.fail "expected four results"

(* A hard drain trips the scheduler's drain guard: every job run after
   it, portfolio jobs included, answers [Failed "cancelled"]. *)
let test_hard_drain_reaches_portfolio () =
  with_scheduler ~jobs:1 @@ fun sched ->
  S.cancel_inflight sched;
  RC.invalidate ();
  let job engine = P.job ~engine (P.Model { id = "nsdp"; size = 5 }) in
  match S.submit sched [ job "portfolio"; job "po" ] with
  | P.Results rs ->
      Alcotest.(check int) "both jobs answered" 2 (List.length rs);
      List.iter
        (fun (r : P.job_result) ->
          match r.status with
          | P.Failed "cancelled" -> ()
          | P.Failed msg -> Alcotest.failf "job %s failed: %s" r.id msg
          | P.Ok -> Alcotest.failf "job %s ran past the drain" r.id)
        rs
  | _ -> Alcotest.fail "drained batch still returns results"

(* ------------------------------------------------------------------ *)
(* Fault injection at serve.request: contained, never poisons          *)

let test_faults_never_poison () =
  with_scheduler @@ fun sched ->
  let job = P.job ~engine:"gpo" (P.Model { id = "nsdp"; size = 3 }) in
  (* Every request faults: the job fails, the batch survives, and
     nothing lands in the cache. *)
  Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Oom ]
    ~sites:[ "serve.request" ] 42
    (fun () ->
      match S.submit sched [ job; job ] with
      | P.Results rs ->
          Alcotest.(check int) "both jobs answered" 2 (List.length rs);
          List.iter
            (fun (r : P.job_result) ->
              match r.status with
              | P.Failed _ -> ()
              | P.Ok -> Alcotest.fail "faulted job must report Failed")
            rs
      | _ -> Alcotest.fail "faulted batch still returns results");
  Alcotest.(check int) "no entry was poisoned into the cache" 0 (RC.size ());
  (* With the schedule disabled the same question gets a fresh, honest
     answer. *)
  let r = submit_one sched job in
  check_ok r;
  Alcotest.(check bool) "post-chaos run is a genuine miss" false r.P.cached

let test_chaos_sweep_cache_integrity () =
  (* Randomized fault schedules over a mixed batch: whatever fails, the
     cache only ever holds Completed outcomes (the invariant `store`
     enforces and chaos tries to break). *)
  with_scheduler @@ fun sched ->
  let batch =
    [
      P.job ~engine:"gpo" (P.Model { id = "nsdp"; size = 3 });
      P.job ~engine:"full" (P.Model { id = "over"; size = 3 });
      P.job ~engine:"po" (P.Model { id = "rw"; size = 5 });
    ]
  in
  for seed = 0 to 19 do
    Guard.Fault.with_faults ~rate:0.5
      ~kinds:[ Guard.Fault.Oom; Guard.Fault.Cancel ]
      ~sites:[ "serve.request" ] seed
      (fun () ->
        match S.submit sched batch with
        | P.Results rs -> Alcotest.(check int) "all answered" 3 (List.length rs)
        | _ -> Alcotest.fail "chaos batch still returns results");
    List.iter
      (fun (k, (o : Harness.Engine.outcome)) ->
        if o.stop <> Guard.Completed then
          Alcotest.failf "seed %d: non-Completed entry cached under %s" seed k)
      (RC.entries ())
  done

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let roundtrip_request r =
  match P.request_of_json (P.json_of_request r) with
  | Ok r' -> r'
  | Error msg -> Alcotest.failf "request roundtrip: %s" msg

let roundtrip_response r =
  match P.response_of_json (P.json_of_response r) with
  | Ok r' -> r'
  | Error msg -> Alcotest.failf "response roundtrip: %s" msg

let test_protocol_roundtrip () =
  let job =
    P.job ~id:"q1" ~cover:[ "a"; "b" ] ~engine:"portfolio" ~max_states:123
      ~witness:false ~reduce:true ~jobs:4 ~timeout_s:1.5 ~mem_mb:256
      (P.Inline "net n\n")
  in
  let model_job = P.job (P.Model { id = "nsdp"; size = 7 }) in
  (match roundtrip_request (P.Submit [ job; model_job ]) with
  | P.Submit [ j1; j2 ] ->
      Alcotest.(check bool) "job fields survive" true (j1 = job);
      Alcotest.(check bool) "model job survives" true (j2 = model_job)
  | _ -> Alcotest.fail "submit shape");
  List.iter
    (fun r ->
      Alcotest.(check bool) "control op roundtrips" true
        (roundtrip_request r = r))
    [ P.Ping; P.Stats; P.Shutdown ];
  let results =
    P.Results
      [
        {
          P.id = "q1";
          status = P.Ok;
          cached = true;
          deduped = false;
          certified = Some true;
          report = Some (J.Obj [ ("deadlock", J.Bool true) ]);
          metrics = J.Obj [ ("events", J.Int 3) ];
        };
        {
          P.id = "q2";
          status = P.Failed "boom";
          cached = false;
          deduped = true;
          certified = None;
          report = None;
          metrics = J.Null;
        };
      ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "response roundtrips" true
        (roundtrip_response r = r))
    [
      results;
      P.Rejected { reason = "queue_full"; limit = 8; depth = 6; batch = 4 };
      P.Pong;
      P.Stats_reply (J.Obj [ ("cache", J.Obj [ ("size", J.Int 1) ]) ]);
      P.Bye;
      P.Timed_out;
      P.Error "bad json";
    ]

let outcome ?(deadlock = false) ?(stop = Guard.Completed) ?witness () =
  { Harness.Engine.kind = Harness.Engine.Gpo; states = 1.; metric = 1.;
    deadlock; time_s = 0.; stop; witness }

(* A wire result carrying the report of a synthetic outcome. *)
let wire_result ?deadlock ?stop ?witness ?certified status =
  let o = outcome ?deadlock ?stop ?witness () in
  { P.id = "r"; status; cached = false; deduped = false; certified;
    report = Some (Harness.Report.json_of_outcome o); metrics = J.Null }

let test_verdict_mapping () =
  let check msg want r =
    Alcotest.(check bool) msg true (P.verdict_of_result r = want)
  in
  check "clean complete = holds" (Ok P.Holds) (wire_result P.Ok);
  check "certified deadlock = violated" (Ok P.Violated)
    (wire_result ~deadlock:true ~witness:[ 0 ] ~certified:true P.Ok);
  check "certified deadlock of a truncated run is still violated"
    (Ok P.Violated)
    (wire_result ~deadlock:true ~stop:Guard.State_budget ~witness:[ 0 ]
       ~certified:true P.Ok);
  check "uncertified deadlock of a witness-free job = violated"
    (Ok P.Violated) (wire_result ~deadlock:true P.Ok);
  check "truncated clean = inconclusive" (Ok P.Inconclusive)
    (wire_result ~stop:Guard.State_budget P.Ok);
  check "rejected witness is a certification failure"
    (Error "certification failed")
    (wire_result ~deadlock:true ~witness:[ 0 ] ~certified:false P.Ok);
  check "undecodable report fails"
    (Error "outcome: field \"engine\": expected string")
    { (wire_result P.Ok) with P.report = Some (J.Obj []) };
  check "failed job carries its message" (Error "boom")
    { (wire_result (P.Failed "boom")) with P.report = None }

(* [julie submit]'s fold: a result whose witness the server rejected
   ([certified = Some false]) is the same class as a doctored outcome
   classified through [Query], and it outranks a genuine violation. *)
let test_submit_fold_untrusted () =
  let doctored = outcome ~deadlock:true ~witness:[ 0; 0 ] () in
  let rejected =
    wire_result ~deadlock:true ~witness:[ 0; 0 ] ~certified:false P.Ok
  in
  let violated =
    wire_result ~deadlock:true ~witness:[ 0 ] ~certified:true P.Ok
  in
  Alcotest.(check string) "wire and Query agree on the class"
    (Q.verdict_name (snd (Q.classify (nsdp_query 2) doctored)))
    (Q.verdict_name (P.classify rejected));
  Alcotest.(check string) "the class is untrusted" "UNTRUSTED"
    (Q.verdict_name (P.classify rejected));
  Alcotest.(check int) "untrusted outranks a genuine violation" 2
    (Q.exit_code (List.map P.classify [ violated; rejected ]));
  Alcotest.(check int) "the genuine violation alone exits 1" 1
    (Q.exit_code [ P.classify violated ])

(* ------------------------------------------------------------------ *)
(* The daemon over a real socket                                       *)

let with_server ?(queue_limit = 8) name f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "julie-test-%s-%d.sock" name (Unix.getpid ()))
  in
  let endpoint = Serve.Server.Unix_path path in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.serve ~jobs:1 ~queue_limit endpoint)
  in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Serve.Client.shutdown endpoint) with _ -> ());
      Domain.join server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "server comes up" true
        (Serve.Client.wait_ready endpoint);
      f endpoint)

let test_server_over_socket () =
  with_server "socket" @@ fun endpoint ->
  let job = P.job ~engine:"gpo" (P.Model { id = "fig2"; size = 5 }) in
  let miss =
    match Serve.Client.submit endpoint [ job ] with
    | Ok (P.Results [ r ]) -> r
    | Ok _ -> Alcotest.fail "expected one result"
    | Error f -> Alcotest.failf "submit: %s" (Serve.Client.describe_failure f)
  in
  check_ok miss;
  Alcotest.(check bool) "first request misses" false miss.P.cached;
  let hit =
    match Serve.Client.submit endpoint [ job ] with
    | Ok (P.Results [ r ]) -> r
    | Ok _ -> Alcotest.fail "expected one result"
    | Error f -> Alcotest.failf "submit: %s" (Serve.Client.describe_failure f)
  in
  check_ok hit;
  Alcotest.(check bool) "second request hits over the wire" true
    hit.P.cached;
  Alcotest.(check string) "wire hit report is byte-identical"
    (report_string miss) (report_string hit);
  (* Per-request metrics rode back in the response. *)
  (match J.member "events" hit.P.metrics with
  | Some (J.Int n) ->
      Alcotest.(check bool) "request emitted events" true (n > 0)
  | _ -> Alcotest.fail "metrics summary missing from the response");
  match Serve.Client.stats endpoint with
  | Ok (P.Stats_reply stats) ->
      let cache = J.member "cache" stats in
      Alcotest.(check bool) "stats reply lists the cache" true
        (cache <> None)
  | Ok _ -> Alcotest.fail "expected stats reply"
  | Error f -> Alcotest.failf "stats: %s" (Serve.Client.describe_failure f)

(* Sizes the model constructors reject, an unknown place, an unknown
   engine and a worker count past OCaml's cap on live domains fail their
   own job; the good question in the same batch is answered and the
   daemon keeps serving — later questions that spawn domains included. *)
let test_bad_jobs_keep_daemon_alive () =
  (* Nine jobs in one batch: past the default admission bound. *)
  with_server ~queue_limit:16 "bad" @@ fun endpoint ->
  let model id size = P.Model { id; size } in
  let bad =
    [
      P.job (model "asat" 6);
      P.job (model "nsdp" 1);
      P.job (model "rw" 1);
      P.job (model "over" 1);
      P.job (model "fig2" 0);
      P.job ~cover:[ "nosuch" ] (model "nsdp" 3);
      P.job ~engine:"bogus" (model "nsdp" 3);
      P.job ~jobs:300 (model "over" 3);
    ]
  in
  let good = P.job (model "nsdp" 3) in
  (match Serve.Client.submit endpoint (bad @ [ good ]) with
  | Ok (P.Results rs) ->
      Alcotest.(check int) "every job answered" (List.length bad + 1)
        (List.length rs);
      List.iteri
        (fun i (r : P.job_result) ->
          match r.status with
          | P.Failed _ when i < List.length bad -> ()
          | P.Ok when i = List.length bad ->
              Alcotest.(check (option bool)) "good job certified" (Some true)
                r.certified
          | _ -> Alcotest.failf "job %s: wrong status" r.id)
        rs
  | Ok _ -> Alcotest.fail "expected results"
  | Error f -> Alcotest.failf "submit: %s" (Serve.Client.describe_failure f));
  (* The failed spawn left no worker behind: a race and a two-worker GPO
     run still get their domains. *)
  (match
     Serve.Client.submit endpoint
       [
         P.job ~engine:"portfolio" (model "nsdp" 3);
         P.job ~jobs:2 (model "over" 3);
       ]
   with
  | Ok (P.Results rs) ->
      Alcotest.(check int) "both jobs answered" 2 (List.length rs);
      List.iter
        (fun (r : P.job_result) ->
          match r.status with
          | P.Ok -> ()
          | P.Failed msg -> Alcotest.failf "job %s failed: %s" r.id msg)
        rs
  | Ok _ -> Alcotest.fail "expected results"
  | Error f -> Alcotest.failf "submit: %s" (Serve.Client.describe_failure f));
  match Serve.Client.ping endpoint with
  | Ok P.Pong -> ()
  | Ok _ -> Alcotest.fail "expected pong"
  | Error f -> Alcotest.failf "ping: %s" (Serve.Client.describe_failure f)

(* ------------------------------------------------------------------ *)
(* Frame codec under hostile input                                     *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_raw fd s =
  ignore (Unix.write_substring fd s 0 (String.length s) : int)

let test_frame_clean_eof () =
  with_socketpair @@ fun a b ->
  Unix.close b;
  (match P.read_frame a with
  | P.Eof -> ()
  | _ -> Alcotest.fail "clean close reads as Eof")

let test_frame_truncated_header () =
  with_socketpair @@ fun a b ->
  write_raw b "\x00\x00";
  Unix.close b;
  (match P.read_frame a with
  | P.Bad (P.Frame_truncated _) -> ()
  | _ -> Alcotest.fail "short header is a typed truncation")

let test_frame_truncated_payload () =
  with_socketpair @@ fun a b ->
  write_raw b "\x00\x00\x00\x64partial";
  Unix.close b;
  (match P.read_frame a with
  | P.Bad (P.Frame_truncated _) -> ()
  | _ -> Alcotest.fail "mid-frame EOF is a typed truncation")

let test_frame_oversized () =
  with_socketpair @@ fun a b ->
  (* Length prefix of max_frame + 1: must come back typed, not as a
     64 MiB allocation attempt. *)
  write_raw b "\x04\x00\x00\x01";
  Unix.close b;
  (match P.read_frame a with
  | P.Bad (P.Frame_oversized n) ->
      Alcotest.(check int) "reported size" (P.max_frame + 1) n
  | _ -> Alcotest.fail "oversized prefix is typed")

let test_frame_garbage_json () =
  with_socketpair @@ fun a b ->
  P.write_frame b "this is not json {";
  (match P.recv a with
  | P.Payload (Error _) -> ()
  | _ -> Alcotest.fail "intact frame with broken JSON survives as Error");
  (* The connection is still usable afterwards. *)
  P.send b (P.json_of_request P.Ping);
  (match P.recv a with
  | P.Payload (Ok json) -> (
      match P.request_of_json json with
      | Ok P.Ping -> ()
      | _ -> Alcotest.fail "later frame decodes")
  | _ -> Alcotest.fail "connection survives garbage JSON")

let test_frame_timeout () =
  with_socketpair @@ fun a _b ->
  P.set_timeouts a 0.1;
  let t0 = Unix.gettimeofday () in
  (match P.read_frame a with
  | P.Bad P.Frame_timeout -> ()
  | _ -> Alcotest.fail "stalled peer reads as a typed timeout");
  Alcotest.(check bool) "timeout fires promptly" true
    (Unix.gettimeofday () -. t0 < 5.0)

let test_frame_fuzz_never_raises () =
  (* Seeded random byte streams: the reader must always return a typed
     incoming — any exception here is a server-killer. *)
  for seed = 0 to 19 do
    let rng = Random.State.make [| 0xF0_22; seed |] in
    with_socketpair @@ fun a b ->
    let len = 1 + Random.State.int rng 200 in
    let garbage =
      String.init len (fun _ -> Char.chr (Random.State.int rng 256))
    in
    write_raw b garbage;
    Unix.close b;
    let rec drain budget =
      if budget > 0 then
        match P.read_frame a with
        | P.Payload _ -> drain (budget - 1)
        | P.Eof | P.Bad _ -> ()
    in
    match drain 64 with
    | () -> ()
    | exception e ->
        Alcotest.failf "seed %d: frame reader raised %s" seed
          (Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Slow clients must not head-of-line-block the daemon                 *)

let test_slow_client_times_out () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "julie-test-slow-%d.sock" (Unix.getpid ()))
  in
  let endpoint = Serve.Server.Unix_path path in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.serve ~jobs:1 ~queue_limit:8 ~io_timeout_s:0.3 endpoint)
  in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Serve.Client.shutdown endpoint) with _ -> ());
      Domain.join server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "server comes up" true
        (Serve.Client.wait_ready endpoint);
      (* A slow-loris client: connects, never sends a byte. *)
      let silent = Serve.Client.connect endpoint in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close silent with Unix.Unix_error _ -> ())
        (fun () ->
          (* A well-behaved client right behind it is served once the
             stalled connection blows its 0.3 s deadline — not never. *)
          let t0 = Unix.gettimeofday () in
          (match Serve.Client.ping endpoint with
          | Ok P.Pong -> ()
          | Ok _ -> Alcotest.fail "expected pong behind the slow client"
          | Error f ->
              Alcotest.failf "ping behind the slow client: %s"
                (Serve.Client.describe_failure f));
          Alcotest.(check bool) "served promptly after the deadline" true
            (Unix.gettimeofday () -. t0 < 10.0);
          (* The stalled client got the typed reply before the close. *)
          P.set_timeouts silent 10.0;
          match P.recv silent with
          | P.Payload (Ok json) -> (
              match P.response_of_json json with
              | Ok P.Timed_out -> ()
              | _ -> Alcotest.fail "slow client gets a typed timed_out reply")
          | _ -> Alcotest.fail "slow client gets a reply before the close"))

(* ------------------------------------------------------------------ *)
(* Client retry policy                                                 *)

let test_failure_classification () =
  List.iter
    (fun (f, want) ->
      Alcotest.(check bool)
        (Serve.Client.describe_failure f ^ " transience")
        want
        (Serve.Client.transient f))
    [
      (Serve.Client.Refused "connect: refused", true);
      (Serve.Client.Timed_out "deadline", true);
      (Serve.Client.Closed, false);
      (Serve.Client.Protocol_error "bad frame", false);
      (Serve.Client.Io "EPIPE", false);
    ]

let test_retry_gives_up_on_dead_endpoint () =
  let endpoint =
    Serve.Server.Unix_path
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "julie-test-nobody-%d.sock" (Unix.getpid ())))
  in
  let rng = Random.State.make [| 42 |] in
  let t0 = Unix.gettimeofday () in
  (match Serve.Client.submit ~retries:3 ~backoff_ms:1 ~rng endpoint [] with
  | Error (Serve.Client.Refused _) -> ()
  | Error f ->
      Alcotest.failf "expected Refused, got %s"
        (Serve.Client.describe_failure f)
  | Ok _ -> Alcotest.fail "nobody was listening");
  (* 3 retries at base 1 ms: the full-jitter ceilings sum to ~7 ms. *)
  Alcotest.(check bool) "jittered backoff stays near its ceiling" true
    (Unix.gettimeofday () -. t0 < 5.0)

let test_retry_rides_out_restart () =
  (* The daemon comes up late — exactly the restart window the retry
     policy exists for.  The client's first attempts are refused, a
     later one lands. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "julie-test-lateboot-%d.sock" (Unix.getpid ()))
  in
  let endpoint = Serve.Server.Unix_path path in
  let server =
    Domain.spawn (fun () ->
        Unix.sleepf 0.25;
        Serve.Server.serve ~jobs:1 ~queue_limit:8 endpoint)
  in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Serve.Client.shutdown endpoint) with _ -> ());
      Domain.join server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let rng = Random.State.make [| 7 |] in
      match Serve.Client.submit ~retries:20 ~backoff_ms:50 ~rng endpoint [] with
      | Ok (P.Results []) -> ()
      | Ok _ -> Alcotest.fail "expected an empty result list"
      | Error f ->
          Alcotest.failf "retries should ride out the restart: %s"
            (Serve.Client.describe_failure f))

let suite =
  [
    Alcotest.test_case "net digest is stable content addressing" `Quick
      test_digest_stable;
    Alcotest.test_case "cache hits are byte-identical (zoo, all engines)"
      `Slow test_cache_identity_zoo;
    Alcotest.test_case "cache hits are byte-identical (seeded random nets)"
      `Slow test_cache_identity_random;
    Alcotest.test_case "portfolio results cache like any other" `Quick
      test_cache_identity_portfolio;
    Alcotest.test_case "hits never cross engine configurations" `Quick
      test_no_cross_config_hits;
    Alcotest.test_case "semantics version isolates cache generations" `Quick
      test_semantics_version_isolates;
    Alcotest.test_case "worker count is excluded from the key" `Quick
      test_jobs_not_in_key;
    Alcotest.test_case "store refuses truncated outcomes" `Quick
      test_store_refuses_truncated;
    Alcotest.test_case "hits re-verify and evict corrupt witnesses" `Quick
      test_hit_reverification_evicts;
    Alcotest.test_case "a served cache hit certifies once" `Quick
      test_hit_certifies_once;
    Alcotest.test_case "scheduler evicts a hit whose witness is rejected"
      `Quick test_scheduler_evicts_rejected_hit;
    Alcotest.test_case "memory pressure sweeps the cache" `Quick
      test_memory_pressure_invalidates;
    Alcotest.test_case "admission control rejects whole batches" `Quick
      test_admission_control;
    Alcotest.test_case "in-batch dedupe computes once" `Quick
      test_batch_dedupe;
    Alcotest.test_case "faults at serve.request never poison the cache"
      `Quick test_faults_never_poison;
    Alcotest.test_case "chaos sweep keeps only Completed entries" `Slow
      test_chaos_sweep_cache_integrity;
    Alcotest.test_case "wire protocol roundtrips" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "verdict mapping follows the exit-code contract"
      `Quick test_verdict_mapping;
    Alcotest.test_case "submit's fold: a rejected witness is untrusted"
      `Quick test_submit_fold_untrusted;
    Alcotest.test_case "daemon serves cache hits over a Unix socket" `Quick
      test_server_over_socket;
    Alcotest.test_case "bad jobs fail alone, the daemon keeps serving" `Quick
      test_bad_jobs_keep_daemon_alive;
    Alcotest.test_case "frame: clean EOF" `Quick test_frame_clean_eof;
    Alcotest.test_case "frame: truncated header is typed" `Quick
      test_frame_truncated_header;
    Alcotest.test_case "frame: mid-frame EOF is typed" `Quick
      test_frame_truncated_payload;
    Alcotest.test_case "frame: oversized prefix is typed" `Quick
      test_frame_oversized;
    Alcotest.test_case "frame: garbage JSON keeps the connection" `Quick
      test_frame_garbage_json;
    Alcotest.test_case "frame: stalled peer is a typed timeout" `Quick
      test_frame_timeout;
    Alcotest.test_case "frame: random byte fuzz never raises" `Quick
      test_frame_fuzz_never_raises;
    Alcotest.test_case "slow client times out, next client served" `Quick
      test_slow_client_times_out;
    Alcotest.test_case "failure transience classification" `Quick
      test_failure_classification;
    Alcotest.test_case "retry gives up on a dead endpoint" `Quick
      test_retry_gives_up_on_dead_endpoint;
    Alcotest.test_case "retry rides out a daemon restart" `Quick
      test_retry_rides_out_restart;
    Alcotest.test_case "a hard drain cancels portfolio jobs too" `Quick
      test_hard_drain_reaches_portfolio;
  ]
