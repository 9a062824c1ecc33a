(* The persistent result cache: journal recovery semantics.

   The invariant under test everywhere: after any crash — torn tail,
   corrupted middle, fabricated records, injected journaling faults —
   a restarted cache serves only entries that are [Completed], whose
   net text matches the digest in their key, and whose witnesses
   re-certify by replay; and what it serves is byte-identical to what
   the original process computed. *)

module RC = Harness.Result_cache
module Jn = Harness.Journal
module J = Gpo_obs.Json

let with_sink f =
  if Gpo_obs.enabled () then f ()
  else begin
    Gpo_obs.install Gpo_obs.null_sink;
    Fun.protect ~finally:Gpo_obs.uninstall f
  end

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "julie-persist-test-%d-%d" (Unix.getpid ()) !counter)
    in
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Every test leaves the global cache detached and empty. *)
let with_cache_dir f =
  with_sink @@ fun () ->
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () ->
      RC.detach ();
      RC.invalidate ();
      rm_rf dir)
    (fun () ->
      RC.invalidate ();
      f dir)

let journal_path dir = Filename.concat dir "results.journal"

let attach_ok ?compact_bytes dir =
  match RC.attach ?compact_bytes dir with
  | Ok r -> r
  | Error msg -> Alcotest.failf "attach %s: %s" dir msg

(* Restart simulation: what survives [exit] is the file, what dies is
   the process memory. *)
let restart ?compact_bytes dir =
  RC.detach ();
  RC.invalidate ();
  attach_ok ?compact_bytes dir

(* ------------------------------------------------------------------ *)
(* Fixtures: engine outcomes on small nets, computed once              *)

type fixture = {
  name : string;
  net : Petri.Net.t;
  text : string;
  key : RC.key;
  outcome : Harness.Engine.outcome;
  report : string;
}

let make_fixture ?(max_states = 200_000) name net =
  let outcome =
    Harness.Engine.run ~max_states ~witness:true ~gpo_scan:true
      Harness.Engine.Gpo net
  in
  assert (outcome.Harness.Engine.stop = Guard.Completed);
  {
    name;
    net;
    text = Petri.Parser.to_string net;
    key =
      RC.key ~digest:(Petri.Net.digest net) ~engine:"gpo" ~max_states
        ~witness:true ~gpo_scan:true ~reduce:false ();
    outcome;
    report = J.to_string (Harness.Report.json_of_outcome outcome);
  }

let fixtures =
  lazy
    (with_sink @@ fun () ->
     [
       make_fixture "fig1" Models.Figures.fig1;
       make_fixture "fig2-4" (Models.Figures.fig2 4);
       make_fixture "over-3" (Models.Over.make 3);
     ])

let store_fixture (f : fixture) =
  Alcotest.(check bool)
    (f.name ^ " store accepted") true
    (RC.store ~net_text:f.text f.key f.outcome)

let check_served (f : fixture) =
  match RC.find ~verify_net:f.net f.key with
  | None -> Alcotest.failf "%s: recovered entry missing" f.name
  | Some o ->
      Alcotest.(check string)
        (f.name ^ " recovered report is byte-identical")
        f.report
        (J.to_string (Harness.Report.json_of_outcome o))

(* Journal-record crafting (the format the cache writes), for tests
   that fabricate hostile files. *)
let header ?(semantics = RC.semantics_version) () =
  J.to_string
    (J.Obj
       [
         ("magic", J.String "julie-results");
         ("format", J.Int 1);
         ("semantics", J.String semantics);
       ])

let record ?key ?net ?outcome_json (f : fixture) =
  let key = Option.value key ~default:(RC.render f.key) in
  let net = Option.value net ~default:f.text in
  let outcome =
    Option.value outcome_json
      ~default:(Harness.Report.json_of_outcome f.outcome)
  in
  J.to_string
    (J.Obj [ ("key", J.String key); ("net", J.String net); ("outcome", outcome) ])

let write_journal dir records =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Jn.close (Jn.create (journal_path dir) records)

let completed_only () =
  List.iter
    (fun (k, (o : Harness.Engine.outcome)) ->
      if o.Harness.Engine.stop <> Guard.Completed then
        Alcotest.failf "non-completed entry served: %s" k)
    (RC.entries ())

(* ------------------------------------------------------------------ *)

let test_recover_roundtrip () =
  with_cache_dir @@ fun dir ->
  let fs = Lazy.force fixtures in
  let r = attach_ok dir in
  Alcotest.(check int) "fresh dir recovers nothing" 0 r.RC.recovered;
  List.iter store_fixture fs;
  let stored = RC.size () in
  let r = restart dir in
  Alcotest.(check int) "every journaled entry recovers" stored r.RC.recovered;
  Alcotest.(check int) "nothing rejected" 0 r.RC.rejected;
  Alcotest.(check int) "recovery report matches last_recovery"
    r.RC.recovered
    (match RC.last_recovery () with Some r -> r.RC.recovered | None -> -1);
  List.iter check_served fs;
  completed_only ();
  (* A second restart without intervening writes is just as clean. *)
  let r = restart dir in
  Alcotest.(check int) "stable across repeated restarts" stored r.RC.recovered

let test_last_writer_wins () =
  with_cache_dir @@ fun dir ->
  let f = List.hd (Lazy.force fixtures) in
  let stamped t = { f.outcome with Harness.Engine.time_s = t } in
  write_journal dir
    [
      header ();
      record f ~outcome_json:(Harness.Report.json_of_outcome (stamped 1111.0));
      record f ~outcome_json:(Harness.Report.json_of_outcome (stamped 2222.0));
    ];
  let r = restart dir in
  Alcotest.(check int) "duplicates collapse to one entry" 1 r.RC.recovered;
  Alcotest.(check bool) "duplicate collapse compacts" true r.RC.compacted;
  (match RC.find ~verify_net:f.net f.key with
  | Some o ->
      Alcotest.(check (float 0.0)) "the later record wins" 2222.0
        o.Harness.Engine.time_s
  | None -> Alcotest.fail "deduplicated entry missing");
  (* After compaction the file holds exactly header + 1 record. *)
  let read = Jn.read (journal_path dir) in
  Alcotest.(check int) "compacted file holds header + survivor" 2
    (List.length read.Jn.records)

let test_semantics_bump_invalidates () =
  with_cache_dir @@ fun dir ->
  let f = List.hd (Lazy.force fixtures) in
  write_journal dir [ header ~semantics:"gpo-semantics-0-ancient" (); record f ];
  let r = restart dir in
  Alcotest.(check int) "nothing recovered across a semantics bump" 0
    r.RC.recovered;
  Alcotest.(check int) "stale entries invalidated wholesale" 1
    r.RC.invalidated;
  Alcotest.(check int) "cache is empty" 0 (RC.size ());
  (* The file was rewritten under the current semantics: a second
     restart is clean and recovers nothing. *)
  let r = restart dir in
  Alcotest.(check int) "rewritten journal is clean" 0 r.RC.invalidated

let test_rejects_tampering () =
  with_cache_dir @@ fun dir ->
  let fs = Lazy.force fixtures in
  let good = List.hd fs in
  let other = List.nth fs 1 in
  let partial =
    (* Structurally valid outcome, but a budget stop — an answer to a
       budget, not to the net. *)
    J.Obj
      [
        ("engine", J.String "gpo");
        ("states", J.Float 5.0);
        ("metric", J.Float 5.0);
        ("deadlock", J.Bool false);
        ("time_s", J.Float 0.0);
        ("truncated", J.Bool true);
        ("stop_reason", J.String "state_budget");
        ("witness", J.Null);
      ]
  in
  let bogus_witness =
    (* Claims a deadlock with a witness that does not replay to one. *)
    J.Obj
      [
        ("engine", J.String "gpo");
        ("states", J.Float 5.0);
        ("metric", J.Float 5.0);
        ("deadlock", J.Bool true);
        ("time_s", J.Float 0.0);
        ("truncated", J.Bool false);
        ("stop_reason", J.String "completed");
        ("witness", J.List [ J.Int 0; J.Int 0; J.Int 0; J.Int 0; J.Int 0 ]);
      ]
  in
  write_journal dir
    [
      header ();
      record good;
      "this is not json";
      record good ~outcome_json:partial;
      record good ~net:other.text (* digest/key mismatch *);
      record good ~outcome_json:bogus_witness;
    ];
  let r = restart dir in
  Alcotest.(check int) "only the honest record survives" 1 r.RC.recovered;
  Alcotest.(check int) "every tampered record is rejected" 4 r.RC.rejected;
  Alcotest.(check bool) "rejection compacts the file" true r.RC.compacted;
  check_served good;
  completed_only ()

let test_torn_tail_recovery () =
  with_cache_dir @@ fun dir ->
  let fs = Lazy.force fixtures in
  ignore (attach_ok dir);
  List.iter store_fixture fs;
  RC.flush_journal ();
  RC.detach ();
  (* kill -9 mid-append: a header promising more bytes than exist. *)
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644
      (journal_path dir)
  in
  output_string oc "\x00\x00\x01\x00torn";
  close_out oc;
  RC.invalidate ();
  let r = attach_ok dir in
  Alcotest.(check int) "all finished entries recover" (List.length fs)
    r.RC.recovered;
  Alcotest.(check bool) "torn bytes detected" true (r.RC.torn_bytes > 0);
  Alcotest.(check bool) "tear compacts the file" true r.RC.compacted;
  List.iter check_served fs;
  (* The compacted file is clean: restart again, no tear. *)
  let r = restart dir in
  Alcotest.(check int) "healed journal has no torn bytes" 0 r.RC.torn_bytes

(* ------------------------------------------------------------------ *)
(* Chaos: seeded kill -9 simulation sweep                              *)

(* For each seed: build a journal of finished entries, cut the file at
   a seeded byte offset (everything a kill -9 can leave behind is a
   prefix of what was written), recover, and assert the invariant.
   Some seeds also run with fault injection armed at the journal probe
   sites while storing, so injected journaling failures (simulated
   full disk / allocator death inside append, flush, compact) are part
   of the swept space. *)
let kill9_seeds = 24

let test_kill9_sweep () =
  let fs = Lazy.force fixtures in
  let by_key =
    List.map (fun (f : fixture) -> (RC.render f.key, f)) fs
  in
  for seed = 0 to kill9_seeds - 1 do
    with_cache_dir @@ fun dir ->
    let rng = Random.State.make [| 0xC4A05; seed |] in
    ignore (attach_ok dir);
    let faulty = seed mod 3 = 0 in
    if faulty then
      Guard.Fault.enable ~rate:0.5 ~kinds:[ Guard.Fault.Oom ]
        ~sites:[ "journal.append"; "journal.flush"; "journal.compact" ]
        seed;
    Fun.protect ~finally:Guard.Fault.disable (fun () ->
        List.iter
          (fun (f : fixture) ->
            (* Journaling faults must never fail the store itself. *)
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: store %s survives faults" seed f.name)
              true
              (RC.store ~net_text:f.text f.key f.outcome))
          fs;
        RC.flush_journal ());
    RC.detach ();
    (* The kill: the file ends at an arbitrary byte. *)
    let path = journal_path dir in
    let size = (Unix.stat path).Unix.st_size in
    let cut = Random.State.int rng (size + 1) in
    Unix.truncate path cut;
    RC.invalidate ();
    let r = attach_ok dir in
    (* The invariant: whatever survived is Completed, digest-matched,
       re-certified, and byte-identical to the original computation. *)
    completed_only ();
    List.iter
      (fun (k, (o : Harness.Engine.outcome)) ->
        match List.assoc_opt k by_key with
        | None -> Alcotest.failf "seed %d: foreign key recovered: %s" seed k
        | Some f ->
            Alcotest.(check string)
              (Printf.sprintf "seed %d: %s byte-identical" seed f.name)
              f.report
              (J.to_string (Harness.Report.json_of_outcome o)))
      (RC.entries ());
    Alcotest.(check int)
      (Printf.sprintf "seed %d: recovery count matches table" seed)
      (RC.size ()) r.RC.recovered;
    (* Every recovered entry must actually serve (find re-certifies). *)
    List.iter
      (fun (k, _) ->
        let f = List.assoc k by_key in
        match RC.find ~verify_net:f.net f.key with
        | Some _ -> ()
        | None ->
            Alcotest.failf "seed %d: recovered entry refuses to serve: %s"
              seed f.name)
      (RC.entries ())
  done

(* Journaling faults while attached must leave the in-memory cache
   fully functional and the journal error counter ticking, never an
   exception escaping [store]. *)
let test_fault_probes_contained () =
  with_cache_dir @@ fun dir ->
  let f = List.hd (Lazy.force fixtures) in
  ignore (attach_ok dir);
  Guard.Fault.with_faults ~rate:1.0 ~kinds:[ Guard.Fault.Oom ]
    ~sites:[ "journal.append" ] 7 (fun () ->
      Alcotest.(check bool) "store succeeds under a 100% append fault" true
        (RC.store ~net_text:f.text f.key f.outcome));
  Alcotest.(check bool) "entry is served from memory" true
    (RC.find ~verify_net:f.net f.key <> None);
  (* The journal never got the record — after restart the entry is
     simply gone, not corrupt. *)
  let r = restart dir in
  Alcotest.(check int) "faulted append journaled nothing" 0 r.RC.recovered;
  completed_only ()

let test_compaction_threshold () =
  with_cache_dir @@ fun dir ->
  let f = List.hd (Lazy.force fixtures) in
  (* A threshold smaller than one record forces a compaction on every
     store; the live set is one entry, so the file never grows beyond
     header + 1 record. *)
  ignore (attach_ok ~compact_bytes:64 dir);
  for _ = 1 to 5 do
    ignore (RC.store ~net_text:f.text f.key f.outcome : bool)
  done;
  RC.detach ();
  let read = Jn.read (journal_path dir) in
  Alcotest.(check int) "compaction keeps the file at header + live set" 2
    (List.length read.Jn.records);
  RC.invalidate ();
  let r = attach_ok dir in
  Alcotest.(check int) "compacted journal recovers the live set" 1
    r.RC.recovered;
  check_served f

(* A cover-property entry is journaled with its monitored net; the
   monitor's name must re-parse, or recovery would drop every such
   record. *)
let test_cover_property_recovers () =
  with_cache_dir @@ fun dir ->
  let module Q = Harness.Query in
  let q =
    match
      Q.prepare ~cover:[ "gotL.0"; "gotL.1" ] (Q.Model { id = "nsdp"; size = 2 })
    with
    | Ok q -> q
    | Error msg -> Alcotest.fail msg
  in
  let budgets =
    { Q.max_states = 200_000; jobs = 1; timeout_s = None; mem_mb = None }
  in
  let sel = Q.Single Harness.Engine.Gpo in
  let key = Q.key ~witness:true ~reduce:false budgets sel q in
  let outcome = Q.run ~witness:true ~reduce:false budgets sel q in
  Alcotest.(check bool) "the cover is reachable" true
    outcome.Harness.Engine.deadlock;
  ignore (attach_ok dir);
  Alcotest.(check bool) "store accepted" true
    (RC.store ~net_text:(Petri.Parser.to_string q.target) key outcome);
  let r = restart dir in
  Alcotest.(check int) "the cover-property entry recovers" 1 r.RC.recovered;
  Alcotest.(check int) "nothing rejected" 0 r.RC.rejected;
  match RC.find ~verify_net:q.target key with
  | None -> Alcotest.fail "recovered entry missing"
  | Some o ->
      Alcotest.(check bool) "the recovered hit certifies" true
        (Harness.Certify.certified (Q.certify q o))

let suite =
  [
    Alcotest.test_case "recovery roundtrip is byte-identical" `Quick
      test_recover_roundtrip;
    Alcotest.test_case "duplicate keys: last writer wins" `Quick
      test_last_writer_wins;
    Alcotest.test_case "semantics bump invalidates wholesale" `Quick
      test_semantics_bump_invalidates;
    Alcotest.test_case "tampered records are rejected" `Quick
      test_rejects_tampering;
    Alcotest.test_case "torn tail is truncated and healed" `Quick
      test_torn_tail_recovery;
    Alcotest.test_case "kill -9 simulation sweep (seeded)" `Slow
      test_kill9_sweep;
    Alcotest.test_case "journal faults never fail a store" `Quick
      test_fault_probes_contained;
    Alcotest.test_case "compaction threshold bounds the file" `Quick
      test_compaction_threshold;
    Alcotest.test_case "cover-property entries survive restart" `Quick
      test_cover_property_recovers;
  ]
