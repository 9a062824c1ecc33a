(* Tests for the deep-observability layer: histogram bucketing and
   quantiles (including cross-domain merge), span misnesting recovery,
   Chrome trace-event export well-formedness, and the seq-vs-par
   differential for per-domain event tagging under Scoped.capture. *)

module Obs = Gpo_obs

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

(* 8 sub-buckets per octave bounds the relative error of a bucket
   midpoint at ~1/16 ≈ 6.25%; leave a little slack for the edges. *)
let rel_err_bound = 0.07

let test_hist_bucketing () =
  (* Monotone over a wide range, and the midpoint stays within the
     advertised relative error. *)
  let values =
    [ 1e-8; 3.7e-5; 0.001; 0.015; 0.5; 1.0; 1.5; 7.0; 42.0; 1e3; 9.99e8 ]
  in
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let i = Obs.Dist.bucket_of_value v in
      Alcotest.(check bool)
        (Printf.sprintf "bucket index for %g in range" v)
        true
        (i >= 0 && i < Obs.Dist.bucket_count);
      Alcotest.(check bool)
        (Printf.sprintf "bucket index monotone at %g" v)
        true (i >= !prev);
      prev := i;
      let mid = Obs.Dist.bucket_mid i in
      let rel = Float.abs (mid -. v) /. v in
      Alcotest.(check bool)
        (Printf.sprintf "midpoint of bucket(%g)=%g within %.0f%%" v mid
           (rel_err_bound *. 100.))
        true (rel <= rel_err_bound))
    values;
  (* Non-positive values land in the underflow bucket. *)
  Alcotest.(check int) "zero underflows" 0 (Obs.Dist.bucket_of_value 0.0);
  Alcotest.(check int) "negative underflows" 0 (Obs.Dist.bucket_of_value (-3.0));
  Alcotest.(check int) "huge overflows"
    (Obs.Dist.bucket_count - 1)
    (Obs.Dist.bucket_of_value 1e300)

let test_hist_quantiles () =
  Obs.reset ();
  let d = Obs.Dist.make "test.hist.quantiles" in
  for i = 1 to 1000 do
    Obs.Dist.observe_int d i
  done;
  Alcotest.(check int) "count" 1000 (Obs.Dist.count d);
  let check_q q expected =
    let v = Obs.Dist.quantile d q in
    let rel = Float.abs (v -. expected) /. expected in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f=%g near %g" (q *. 100.) v expected)
      true (rel <= rel_err_bound)
  in
  check_q 0.50 500.0;
  check_q 0.90 900.0;
  check_q 0.99 990.0;
  (* The extremes are clamped to the exact observed min/max. *)
  Alcotest.(check (float 0.0)) "q0 is min" 1.0 (Obs.Dist.quantile d 0.0);
  Alcotest.(check (float 0.0)) "q1 is max" 1000.0 (Obs.Dist.quantile d 1.0);
  (* Empty distribution: quantile is nan. *)
  let e = Obs.Dist.make "test.hist.empty" in
  Alcotest.(check bool) "empty quantile nan" true
    (Float.is_nan (Obs.Dist.quantile e 0.5))

let test_hist_snapshot_stats () =
  Obs.reset ();
  let d = Obs.Dist.make "test.hist.snap" in
  List.iter (Obs.Dist.observe d) [ 1.0; 2.0; 3.0; 4.0 ];
  let snap = Obs.snapshot () in
  match List.assoc_opt "test.hist.snap" snap.Obs.dists with
  | None -> Alcotest.fail "dist missing from snapshot"
  | Some s ->
      Alcotest.(check int) "count" 4 s.Obs.count;
      Alcotest.(check (float 0.0)) "min exact" 1.0 s.Obs.min;
      Alcotest.(check (float 0.0)) "max exact" 4.0 s.Obs.max;
      Alcotest.(check bool) "p50 in [min,max]" true
        (s.Obs.p50 >= s.Obs.min && s.Obs.p50 <= s.Obs.max);
      Alcotest.(check bool) "p50 <= p90 <= p99" true
        (s.Obs.p50 <= s.Obs.p90 && s.Obs.p90 <= s.Obs.p99)

let test_hist_cross_domain_merge () =
  (* Four domains observe into the same named distribution without any
     coordination; the shared atomic cell is the merge. *)
  Obs.reset ();
  let per_domain = 1000 in
  let spawn () =
    Domain.spawn (fun () ->
        let d = Obs.Dist.make "test.hist.par" in
        for i = 1 to per_domain do
          Obs.Dist.observe_int d i
        done)
  in
  let domains = List.init 4 (fun _ -> spawn ()) in
  List.iter Domain.join domains;
  let d = Obs.Dist.make "test.hist.par" in
  Alcotest.(check int) "no observation lost" (4 * per_domain)
    (Obs.Dist.count d);
  (* Sums of integers this small are exact in floating point. *)
  let expected_sum = float_of_int (4 * (per_domain * (per_domain + 1) / 2)) in
  let snap = Obs.snapshot () in
  (match List.assoc_opt "test.hist.par" snap.Obs.dists with
  | None -> Alcotest.fail "dist missing"
  | Some s ->
      Alcotest.(check (float 0.0)) "sum exact under contention" expected_sum
        s.Obs.sum;
      Alcotest.(check (float 0.0)) "min" 1.0 s.Obs.min;
      Alcotest.(check (float 0.0)) "max" (float_of_int per_domain) s.Obs.max);
  let p50 = Obs.Dist.quantile d 0.5 in
  let rel = Float.abs (p50 -. 500.0) /. 500.0 in
  Alcotest.(check bool) "merged p50 near 500" true (rel <= rel_err_bound)

(* ------------------------------------------------------------------ *)
(* Span misnesting                                                     *)

let misnested_count () =
  Obs.Counter.value (Obs.Counter.make "obs.span.misnested")

let test_span_misnesting_recovery () =
  let sink, _ = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      let a = Obs.Span.enter "a" in
      let b = Obs.Span.enter "b" in
      (* LIFO violation: exit the outer span first. *)
      Obs.Span.exit a;
      Alcotest.(check int) "violation counted" 1 (misnested_count ());
      (* b's token is gone from the stack: its exit is also flagged but
         leaves the stack alone. *)
      Obs.Span.exit b;
      Alcotest.(check int) "stale exit counted" 2 (misnested_count ());
      (* The stack recovered: a new span aggregates at the top level,
         not under a corrupted path. *)
      Obs.Span.time "c" (fun () -> ()));
  let snap = Obs.snapshot () in
  let names = List.map fst snap.Obs.spans in
  Alcotest.(check bool) "recovered span at top level" true
    (List.mem "c" names);
  Alcotest.(check bool) "no corrupted path" true
    (not (List.exists (fun n -> n = "a/c" || n = "a/b/c") names))

let test_span_double_exit () =
  let sink, _ = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      let a = Obs.Span.enter "dbl" in
      Obs.Span.exit a;
      Alcotest.(check int) "clean exit not counted" 0 (misnested_count ());
      Obs.Span.exit a;
      Alcotest.(check int) "double exit counted" 1 (misnested_count ());
      (* Nesting still works afterwards. *)
      Obs.Span.time "outer" (fun () -> Obs.Span.time "inner" (fun () -> ())));
  let snap = Obs.snapshot () in
  let names = List.map fst snap.Obs.spans in
  Alcotest.(check bool) "nesting intact after double exit" true
    (List.mem "outer/inner" names)

(* GPO set-up (conflict analysis, alternatives, r0), the per-state
   enabling relation and the scan's class descent each run under a span
   of their own. *)
let test_gpo_phase_spans () =
  let sink, _ = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      ignore (Harness.Engine.run Harness.Engine.Gpo (Models.Figures.fig2 4)));
  let names = List.map fst (Obs.snapshot ()).Obs.spans in
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " recorded") true (List.mem path names))
    [
      "engine.gpo/gpo.setup";
      "engine.gpo/gpn.worker/gpo.enabling";
      "engine.gpo/gpn.worker/gpo.scan/gpo.classes";
    ]

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

let trace_events json =
  match Obs.Json.member "traceEvents" json with
  | Some (Obs.Json.List evs) -> evs
  | _ -> Alcotest.fail "traceEvents missing or not a list"

let str_field name obj =
  match Obs.Json.member name obj with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

let test_trace_well_formed () =
  let sink, read = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      Obs.meta "run" [ ("net", Obs.S "test") ];
      Obs.Span.time "work" (fun () ->
          Obs.Span.time "step" (fun () -> ());
          Obs.instant "guard.trip" [ ("reason", Obs.S "deadline") ];
          let c = Obs.Counter.make "test.trace.counter" in
          Obs.Counter.incr c));
  let events = read () in
  let json = Obs.Trace.json_of_events events in
  (* The rendering must survive a print/parse round trip through our
     own JSON implementation. *)
  let reparsed =
    match Obs.Json.of_string (Obs.Json.to_string json) with
    | Ok j -> j
    | Error m -> Alcotest.failf "trace JSON does not re-parse: %s" m
  in
  Alcotest.(check bool) "displayTimeUnit present" true
    (Obs.Json.member "displayTimeUnit" reparsed = Some (Obs.Json.String "ms"));
  let evs = trace_events reparsed in
  Alcotest.(check bool) "has events" true (List.length evs > 0);
  let count ph =
    List.length (List.filter (fun e -> str_field "ph" e = Some ph) evs)
  in
  List.iter
    (fun e ->
      match str_field "ph" e with
      | None -> Alcotest.fail "event without ph"
      | Some _ ->
          if str_field "name" e = None then Alcotest.fail "event without name")
    evs;
  Alcotest.(check int) "B/E balanced" (count "B") (count "E");
  Alcotest.(check bool) "span begins present" true (count "B" >= 2);
  Alcotest.(check bool) "instant present" true (count "i" >= 1);
  Alcotest.(check bool) "counter track present" true (count "C" >= 1);
  Alcotest.(check bool) "thread metadata present" true
    (List.exists (fun e -> str_field "name" e = Some "thread_name") evs)

let test_trace_sanitizes_unbalanced () =
  let mk kind name fields =
    { Obs.time = 0.001; kind; dom = 3; name; fields }
  in
  (* A stray end (no matching begin) and a dangling begin (never
     ended): the renderer must still produce balanced B/E. *)
  let events =
    [
      mk Obs.Span_v "stray" [ ("phase", Obs.S "end"); ("dur_s", Obs.F 0.1) ];
      mk Obs.Span_v "dangling" [ ("phase", Obs.S "begin") ];
      mk Obs.Instant_v "mark" [];
    ]
  in
  let json = Obs.Trace.json_of_events events in
  let evs = trace_events json in
  let count ph =
    List.length (List.filter (fun e -> str_field "ph" e = Some ph) evs)
  in
  Alcotest.(check int) "stray end dropped, dangling begin closed" (count "B")
    (count "E");
  Alcotest.(check int) "exactly one duration pair" 1 (count "B");
  Alcotest.(check bool) "dom becomes tid" true
    (List.exists
       (fun e ->
         str_field "ph" e = Some "B"
         && Obs.Json.member "tid" e = Some (Obs.Json.Int 3))
       evs)

(* ------------------------------------------------------------------ *)
(* Lock contention probe                                               *)

let test_lock_contention_probe () =
  Obs.reset ();
  let lock = Obs.Lock.make "test.contend" in
  let arrived = Atomic.make false in
  let sink, _read = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      (* Uncontended acquisition: fast path, a zero observation. *)
      Obs.Lock.acquire lock;
      let waiter =
        Domain.spawn (fun () ->
            let (), events =
              Obs.Scoped.capture (fun () ->
                  Atomic.set arrived true;
                  Obs.Lock.with_lock lock (fun () -> ()))
            in
            events)
      in
      (* Release only once the waiter is at the lock, and late enough
         that its [try_lock] has certainly failed — forcing the timed
         contended path. *)
      while not (Atomic.get arrived) do
        Domain.cpu_relax ()
      done;
      Unix.sleepf 0.05;
      Obs.Lock.release lock;
      let events = Domain.join waiter in
      let wait_spans =
        List.filter
          (fun e ->
            e.Obs.kind = Obs.Span_v && e.Obs.name = "lock.wait.test.contend")
          events
      in
      Alcotest.(check int) "wait span begin and end on waiter's track" 2
        (List.length wait_spans));
  let d = Obs.Dist.make "obs.lock.wait.test.contend" in
  Alcotest.(check int) "both acquisitions observed" 2 (Obs.Dist.count d);
  Alcotest.(check bool) "contended wait has positive duration" true
    (Obs.Dist.quantile d 1.0 > 0.0)

(* ------------------------------------------------------------------ *)
(* Per-domain tagging under Scoped.capture (seq vs par differential)   *)

let emit_burst n =
  for i = 1 to n do
    Obs.instant "burst" [ ("i", Obs.I i) ]
  done

let count_bursts events =
  List.length
    (List.filter
       (fun e -> e.Obs.kind = Obs.Instant_v && e.Obs.name = "burst")
       events)

let test_scoped_capture_no_loss () =
  let n = 200 in
  (* Sequential reference: every burst event reaches the sink. *)
  let sink, read = Obs.memory_sink () in
  Obs.with_sink sink (fun () -> emit_burst n);
  let seq_total = count_bursts (read ()) in
  Alcotest.(check int) "sequential reference" n seq_total;
  (* Parallel: four domains each capture a burst, the coordinator
     replays all buffers.  No event may be lost, and each must carry
     its emitting domain's tag. *)
  let sink, read = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                let (), events = Obs.Scoped.capture (fun () -> emit_burst n) in
                ((Domain.self () :> int), events)))
      in
      let captured = List.map Domain.join domains in
      List.iter
        (fun (dom, events) ->
          Alcotest.(check int) "captured everything the domain emitted" n
            (count_bursts events);
          List.iter
            (fun e ->
              Alcotest.(check int) "event tagged with emitting domain" dom
                e.Obs.dom)
            events;
          Obs.Scoped.replay events)
        captured);
  let replayed =
    List.filter
      (fun e -> e.Obs.kind = Obs.Instant_v && e.Obs.name = "burst")
      (read ())
  in
  Alcotest.(check int) "replay loses nothing" (4 * n) (List.length replayed);
  let doms =
    List.sort_uniq Int.compare (List.map (fun e -> e.Obs.dom) replayed)
  in
  Alcotest.(check int) "four distinct domain tags survive replay" 4
    (List.length doms)

(* A replay inside a capture joins that capture: the inner events land
   in the outer buffer, in order, and reach the sink only when the
   outer buffer is replayed. *)
let test_scoped_replay_nested () =
  let sink, read = Obs.memory_sink () in
  let instants events =
    List.filter_map
      (fun e -> if e.Obs.kind = Obs.Instant_v then Some e.Obs.name else None)
      events
  in
  Obs.with_sink sink (fun () ->
      let (), outer =
        Obs.Scoped.capture (fun () ->
            Obs.instant "before" [];
            let (), inner = Obs.Scoped.capture (fun () -> emit_burst 3) in
            Obs.Scoped.replay inner;
            Obs.instant "after" [])
      in
      Alcotest.(check (list string)) "nothing reached the sink" []
        (instants (read ()));
      Alcotest.(check (list string)) "outer buffer holds the inner events"
        [ "before"; "burst"; "burst"; "burst"; "after" ]
        (instants outer);
      Obs.Scoped.replay outer;
      Alcotest.(check (list string)) "the outer replay reaches the sink"
        [ "before"; "burst"; "burst"; "burst"; "after" ]
        (instants (read ())))

let suite =
  [
    Alcotest.test_case "hist bucketing" `Quick test_hist_bucketing;
    Alcotest.test_case "hist quantiles" `Quick test_hist_quantiles;
    Alcotest.test_case "hist snapshot stats" `Quick test_hist_snapshot_stats;
    Alcotest.test_case "hist cross-domain merge" `Quick
      test_hist_cross_domain_merge;
    Alcotest.test_case "span misnesting recovery" `Quick
      test_span_misnesting_recovery;
    Alcotest.test_case "span double exit" `Quick test_span_double_exit;
    Alcotest.test_case "GPO set-up and enabling spans" `Quick
      test_gpo_phase_spans;
    Alcotest.test_case "trace well-formed" `Quick test_trace_well_formed;
    Alcotest.test_case "trace sanitizes unbalanced spans" `Quick
      test_trace_sanitizes_unbalanced;
    Alcotest.test_case "lock contention probe" `Quick
      test_lock_contention_probe;
    Alcotest.test_case "scoped capture no loss" `Quick
      test_scoped_capture_no_loss;
    Alcotest.test_case "scoped replay inside a capture joins it" `Quick
      test_scoped_replay_nested;
  ]
