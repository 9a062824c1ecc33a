(* Tests for the telemetry layer: counter/gauge/dist/span registry
   semantics, sink behaviour (null sink is a no-op, memory and JSONL
   sinks capture events), JSON round-trips, and consistency between the
   explorer's telemetry and the result record it returns. *)

module Obs = Gpo_obs

let find_counter snap name =
  match List.assoc_opt name snap.Obs.counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %s missing from snapshot" name

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                  *)

let test_counter_basics () =
  Obs.reset ();
  let c = Obs.Counter.make "test.counter" in
  Alcotest.(check int) "zero after reset" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "accumulates" 42 (Obs.Counter.value c);
  let c' = Obs.Counter.make "test.counter" in
  Alcotest.(check int) "make interns by name" 42 (Obs.Counter.value c');
  Alcotest.(check string) "name" "test.counter" (Obs.Counter.name c);
  let snap = Obs.snapshot () in
  Alcotest.(check int) "snapshot sees it" 42 (find_counter snap "test.counter");
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c)

let test_counter_touch () =
  Obs.reset ();
  let c = Obs.Counter.make "test.untouched" in
  ignore c;
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "zero counter absent until touched" true
    (List.assoc_opt "test.untouched" snap.Obs.counters = None);
  Obs.Counter.touch c;
  let snap = Obs.snapshot () in
  Alcotest.(check (option int)) "touched zero counter present" (Some 0)
    (List.assoc_opt "test.untouched" snap.Obs.counters)

let test_gauge_and_dist () =
  Obs.reset ();
  let g = Obs.Gauge.make "test.gauge" in
  Obs.Gauge.set g 1.5;
  Obs.Gauge.set_int g 7;
  Alcotest.(check (float 0.0)) "last value wins" 7.0 (Obs.Gauge.value g);
  let d = Obs.Dist.make "test.dist" in
  List.iter (Obs.Dist.observe_int d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "dist count" 4 (Obs.Dist.count d);
  Alcotest.(check (float 1e-9)) "dist mean" 2.5 (Obs.Dist.mean d);
  let snap = Obs.snapshot () in
  match List.assoc_opt "test.dist" snap.Obs.dists with
  | None -> Alcotest.fail "dist missing from snapshot"
  | Some s ->
      Alcotest.(check int) "stats count" 4 s.Obs.count;
      Alcotest.(check (float 0.0)) "stats min" 1.0 s.Obs.min;
      Alcotest.(check (float 0.0)) "stats max" 4.0 s.Obs.max

let test_span_nesting () =
  Obs.reset ();
  let sink, _read = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      Obs.Span.time "outer" (fun () ->
          Obs.Span.time "inner" (fun () -> ())));
  let snap = Obs.snapshot () in
  let names = List.map fst snap.Obs.spans in
  Alcotest.(check (list string)) "nested span paths" [ "outer"; "outer/inner" ]
    names

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let test_null_sink_noop () =
  (* The null sink accepts events without observable effect, and with no
     sink installed the event half is off entirely. *)
  Obs.uninstall ();
  Alcotest.(check bool) "disabled without sink" false (Obs.enabled ());
  Obs.emit Obs.Meta_v "dropped" [];
  Obs.install Obs.null_sink;
  Alcotest.(check bool) "enabled with null sink" true (Obs.enabled ());
  Obs.emit Obs.Meta_v "dropped" [ ("k", Obs.I 1) ];
  Obs.uninstall ();
  Alcotest.(check bool) "disabled after uninstall" false (Obs.enabled ())

let test_memory_sink_captures () =
  Obs.reset ();
  let sink, read = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      Obs.meta "run" [ ("net", Obs.S "nsdp-4") ];
      let c = Obs.Counter.make "test.mem" in
      Obs.Counter.incr c);
  let events = read () in
  Alcotest.(check bool) "captured events" true (List.length events >= 2);
  (match events with
  | { Obs.kind = Obs.Meta_v; name = "run"; fields; _ } :: _ ->
      Alcotest.(check bool) "meta field" true
        (List.assoc_opt "net" fields = Some (Obs.S "nsdp-4"))
  | _ -> Alcotest.fail "first event should be the run meta record");
  (* with_sink streams the final snapshot: the counter must appear. *)
  Alcotest.(check bool) "snapshot counter event present" true
    (List.exists
       (fun e -> e.Obs.kind = Obs.Counter_v && e.Obs.name = "test.mem")
       events)

let test_jsonl_round_trip () =
  Obs.reset ();
  let sink, read = Obs.memory_sink () in
  Obs.with_sink sink (fun () ->
      Obs.meta "run" [ ("net", Obs.S "x\"y\n"); ("n", Obs.I 4) ];
      let d = Obs.Dist.make "test.rt" in
      Obs.Dist.observe d 1.25);
  let lines =
    List.map (fun e -> Obs.Json.to_string (Obs.json_of_event e)) (read ())
  in
  Alcotest.(check bool) "emitted lines" true (List.length lines >= 2);
  let kinds =
    [ "counter"; "gauge"; "dist"; "span"; "sample"; "meta"; "instant" ]
  in
  let parsed =
    List.map
      (fun line ->
        match Obs.Json.of_string line with
        | Error msg -> Alcotest.failf "unparsable JSONL line %S: %s" line msg
        | Ok json ->
            let has key ok =
              match Obs.Json.member key json with
              | Some v when ok v -> ()
              | _ -> Alcotest.failf "line %S: bad or missing %S" line key
            in
            let open Obs.Json in
            has "t" (function Float _ | Int _ -> true | _ -> false);
            has "ev" (function String k -> List.mem k kinds | _ -> false);
            has "dom" (function Int _ -> true | _ -> false);
            has "name" (function String _ -> true | _ -> false);
            has "fields" (function Obj _ -> true | _ -> false);
            json)
      lines
  in
  let net_of json =
    match (Obs.Json.member "name" json, Obs.Json.member "fields" json) with
    | Some (Obs.Json.String "run"), Some fields -> Obs.Json.member "net" fields
    | _ -> None
  in
  Alcotest.(check bool) "the meta value comes back intact" true
    (List.exists (fun j -> net_of j = Some (Obs.Json.String "x\"y\n")) parsed)

let test_json_parser () =
  (* [d] brackets deep.  The parser recurses once per bracket, so past
     512 levels it must refuse the document, not overflow its stack. *)
  let nested d = String.make d '[' ^ String.make d ']' in
  let rec nested_value d =
    if d = 1 then Obs.Json.List [] else Obs.Json.List [ nested_value (d - 1) ]
  in
  let cases =
    [
      ("null", Obs.Json.Null);
      ("true", Obs.Json.Bool true);
      ("-42", Obs.Json.Int (-42));
      ("1.5e2", Obs.Json.Float 150.0);
      ({|"a\"b\\c\nA"|}, Obs.Json.String "a\"b\\c\nA");
      ("[1,[2],{}]",
       Obs.Json.(List [ Int 1; List [ Int 2 ]; Obj [] ]));
      ({|{"k":"v","n":[true,false]}|},
       Obs.Json.(Obj [ ("k", String "v"); ("n", List [ Bool true; Bool false ]) ]));
      (nested 512, nested_value 512);
    ]
  in
  List.iter
    (fun (s, expected) ->
      match Obs.Json.of_string s with
      | Ok j when j = expected -> ()
      | Ok j ->
          Alcotest.failf "parse %S: got %s" s (Obs.Json.to_string j)
      | Error m -> Alcotest.failf "parse %S failed: %s" s m)
    cases;
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "parse %S should fail" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "tru"; "1 2"; {|{"a":}|}; nested 513; nested 100_000 ];
  (* Printer round-trips every value, and non-finite floats become null. *)
  Alcotest.(check string) "nan is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "escaping" {|"a\"b\nc"|}
    (Obs.Json.to_string (Obs.Json.String "a\"b\nc"))

(* ------------------------------------------------------------------ *)
(* Engine integration: telemetry must agree with the returned result.  *)

let test_explorer_telemetry_consistent () =
  Obs.uninstall ();
  Obs.reset ();
  let r = Gpn.Explorer.analyse (Models.Nsdp.make 4) in
  let states = Obs.Counter.value (Obs.Counter.make "gpo.states") in
  let restarts = Obs.Counter.value (Obs.Counter.make "gpo.restarts") in
  Alcotest.(check int) "gpo.states = result.states" r.Gpn.Explorer.states states;
  Alcotest.(check int) "gpo.restarts = runs - 1"
    (List.length r.Gpn.Explorer.runs - 1)
    restarts;
  (* A scanning run that restarts must also agree.  over-2 restarts in
     the default configuration; the first check keeps this case from
     silently losing its restart. *)
  Obs.reset ();
  let r = Gpn.Explorer.analyse (Models.Over.make 2) in
  Alcotest.(check bool) "over-2 restarts" true
    (List.length r.Gpn.Explorer.runs > 1);
  Alcotest.(check int) "restarting: gpo.states = result.states"
    r.Gpn.Explorer.states
    (Obs.Counter.value (Obs.Counter.make "gpo.states"));
  Alcotest.(check int) "restarting: gpo.restarts = runs - 1"
    (List.length r.Gpn.Explorer.runs - 1)
    (Obs.Counter.value (Obs.Counter.make "gpo.restarts"))

let test_reachability_telemetry_consistent () =
  Obs.uninstall ();
  Obs.reset ();
  let r = Petri.Reachability.explore (Models.Nsdp.make 4) in
  Alcotest.(check int) "reach.states = result.states"
    r.Petri.Reachability.states
    (Obs.Counter.value (Obs.Counter.make "reach.states"))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter touch" `Quick test_counter_touch;
    Alcotest.test_case "gauge and dist" `Quick test_gauge_and_dist;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "null sink no-op" `Quick test_null_sink_noop;
    Alcotest.test_case "memory sink captures" `Quick test_memory_sink_captures;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "explorer telemetry consistent" `Quick
      test_explorer_telemetry_consistent;
    Alcotest.test_case "reachability telemetry consistent" `Quick
      test_reachability_telemetry_consistent;
  ]
