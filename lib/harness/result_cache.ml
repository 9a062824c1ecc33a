(* Content-addressed result cache: (net digest, property, engine
   config, semantics version) -> finished Engine.outcome.

   The table is small (one entry per distinct question asked of a
   server process) and shared across domains, so a single probed lock
   is enough; the heavy work — running engines — never happens under
   it.  A memory-pressure event bumps [generation] and sweeps the
   table under that lock, as do every store and recovery, so the table
   only ever holds entries of the current generation.

   Persistence is an opt-in append-only journal (see Journal): one
   header record carrying the semantics version, then one record per
   store — rendered key, the canonical net text, the outcome JSON.
   Recovery re-admits only records that decode, whose net text hashes
   to the digest in their key, and whose witness still re-certifies by
   replay; everything else is rejected.  A torn tail (kill -9 mid
   append) is truncated at the first bad checksum.  Memory pressure
   sweeps only the in-memory table — the disk copy is not memory, and
   re-admitting it on the next restart is the point. *)

module J = Gpo_obs.Json

let semantics_version = "gpo-semantics-1"

type key = string

let key ?(semantics = semantics_version) ?property ~digest ~engine ~max_states
    ~witness ~gpo_scan ~reduce () =
  Printf.sprintf "%s|net=%s|prop=%s|engine=%s|max_states=%d|witness=%b|scan=%b|reduce=%b"
    semantics digest
    (match property with None -> "-" | Some p -> p)
    engine max_states witness gpo_scan reduce

let render k = k

let digest_of_key k =
  List.find_map
    (fun part ->
      if String.starts_with ~prefix:"net=" part then
        Some (String.sub part 4 (String.length part - 4))
      else None)
    (String.split_on_char '|' k)

type entry = {
  outcome : Engine.outcome;
  net : string option;
      (* Canonical rendering of the net the outcome talks about — what
         the journal needs to re-certify the entry after a restart. *)
}

let table : (key, entry) Hashtbl.t = Hashtbl.create 64
let lock = Gpo_obs.Lock.make "serve.cache"
let generation_cell = Atomic.make 0

let c_hit = Gpo_obs.Counter.make "serve.cache.hit"
let c_miss = Gpo_obs.Counter.make "serve.cache.miss"
let c_store = Gpo_obs.Counter.make "serve.cache.store"
let c_evicted = Gpo_obs.Counter.make "serve.cache.evicted"
let g_size = Gpo_obs.Gauge.make "serve.cache.size"

let c_recovered = Gpo_obs.Counter.make "serve.recovered"
let c_recovery_rejected = Gpo_obs.Counter.make "serve.recovery.rejected"
let c_appends = Gpo_obs.Counter.make "serve.journal.appends"
let c_journal_errors = Gpo_obs.Counter.make "serve.journal.errors"
let c_compactions = Gpo_obs.Counter.make "serve.journal.compactions"
let g_journal_bytes = Gpo_obs.Gauge.make "serve.journal.bytes"

let generation () = Atomic.get generation_cell
let size () = Gpo_obs.Lock.with_lock lock (fun () -> Hashtbl.length table)

let entries () =
  Gpo_obs.Lock.with_lock lock (fun () ->
      Hashtbl.fold (fun k e acc -> (k, e.outcome) :: acc) table [])

let invalidate () =
  Gpo_obs.Lock.with_lock lock (fun () ->
      Atomic.incr generation_cell;
      Gpo_obs.Counter.add c_evicted (Hashtbl.length table);
      Hashtbl.reset table;
      Gpo_obs.Gauge.set_int g_size 0)

(* The result cache is recoverable ballast exactly like the world-set
   memos: dropping it costs recomputation, never correctness. *)
let () = Guard.on_memory_pressure invalidate

let evict_locked k =
  if Hashtbl.mem table k then begin
    Hashtbl.remove table k;
    Gpo_obs.Counter.incr c_evicted;
    Gpo_obs.Gauge.set_int g_size (Hashtbl.length table)
  end

(* A cached violation must still certify when replayed today — the
   cache returns the stored report only after its witness passes the
   same independent check a fresh [julie certify] run applies. *)
let verifies net (o : Engine.outcome) =
  (not o.Engine.deadlock) || o.Engine.witness = None
  || Certify.certified (Certify.deadlock net o)

(* ------------------------------------------------------------------ *)
(* Journal persistence                                                 *)

type recovery = {
  recovered : int;
  rejected : int;
  invalidated : int;
  torn_bytes : int;
  compacted : bool;
}

type persist = {
  path : string;
  compact_bytes : int;
  mutable writer : Journal.writer option;
      (* [None] after an unrecoverable I/O failure: journaling degrades
         to in-memory-only instead of failing stores. *)
}

let persist : persist option ref = ref None
let last_recovery_ref : recovery option ref = ref None

let attached () = !persist <> None
let last_recovery () = !last_recovery_ref

let journal_magic = "julie-results"
let journal_format = 1

let header_payload () =
  J.to_string
    (J.Obj
       [
         ("magic", J.String journal_magic);
         ("format", J.Int journal_format);
         ("semantics", J.String semantics_version);
       ])

let header_matches payload =
  match J.of_string payload with
  | Error _ -> `Bad
  | Ok json -> (
      match
        (J.member "magic" json, J.member "format" json, J.member "semantics" json)
      with
      | Some (J.String m), Some (J.Int f), Some (J.String s)
        when m = journal_magic && f = journal_format ->
          if s = semantics_version then `Ok else `Semantics
      | _ -> `Bad)

let record_payload k net (o : Engine.outcome) =
  J.to_string
    (J.Obj
       [
         ("key", J.String k);
         ("net", J.String net);
         ("outcome", Report.json_of_outcome o);
       ])

let decode_record payload =
  let ( let* ) = Result.bind in
  let* json = J.of_string payload in
  let* k =
    match J.member "key" json with
    | Some (J.String k) -> Ok k
    | _ -> Error "record: missing key"
  in
  let* net =
    match J.member "net" json with
    | Some (J.String n) -> Ok n
    | _ -> Error "record: missing net"
  in
  let* outcome =
    match J.member "outcome" json with
    | Some oj -> Report.outcome_of_json oj
    | None -> Error "record: missing outcome"
  in
  Ok (k, net, outcome)

(* The recovery gate — the journal invariant is that nothing is ever
   served that would not re-certify from first principles today:
   only [Completed] outcomes, only records whose net text hashes to the
   digest their key claims, and only witnesses that replay. *)
let admit payload =
  match decode_record payload with
  | Error msg -> Error msg
  | Ok (k, net_text, outcome) ->
      if outcome.Engine.stop <> Guard.Completed then
        Error "record: non-completed outcome"
      else begin
        match Petri.Parser.parse ~name:"net" net_text with
        | Error e ->
            Error (Format.asprintf "record: net: %a" Petri.Parser.pp_error e)
        | Ok net ->
            if digest_of_key k <> Some (Petri.Net.digest net) then
              Error "record: net text does not match the key digest"
            else if not (verifies net outcome) then
              Error "record: witness no longer certifies"
            else Ok (k, net_text, outcome)
      end

let live_records_locked () =
  Hashtbl.fold
    (fun k e acc ->
      match e.net with
      | Some net -> record_payload k net e.outcome :: acc
      | None -> acc)
    table []

let compact_locked p =
  match p.writer with
  | None -> ()
  | Some w ->
      Guard.Fault.probe "journal.compact";
      Gpo_obs.Span.time "serve.journal.compact" (fun () ->
          Journal.close w;
          let w' =
            Journal.create p.path (header_payload () :: live_records_locked ())
          in
          p.writer <- Some w';
          Gpo_obs.Counter.incr c_compactions;
          Gpo_obs.Gauge.set_int g_journal_bytes (Journal.bytes w'))

(* Journaling is best-effort on top of a correct in-memory cache: any
   failure (injected fault, full disk) is counted and the store still
   succeeds.  After a failure the writer is reopened if possible, or
   dropped — a dropped journal only costs cold restarts. *)
let journal_guarded p f =
  try f () with
  | _ ->
      Gpo_obs.Counter.incr c_journal_errors;
      (match p.writer with
      | Some _ -> (
          try p.writer <- Some (Journal.open_append p.path)
          with _ -> p.writer <- None)
      | None -> ())

let journal_append_locked k (e : entry) =
  match (!persist, e.net) with
  | Some p, Some net ->
      journal_guarded p (fun () ->
          match p.writer with
          | None -> ()
          | Some w ->
              Guard.Fault.probe "journal.append";
              Journal.append w (record_payload k net e.outcome);
              Gpo_obs.Counter.incr c_appends;
              Gpo_obs.Gauge.set_int g_journal_bytes (Journal.bytes w);
              if Journal.bytes w > p.compact_bytes then compact_locked p)
  | _ -> ()

let flush_journal () =
  match !persist with
  | None -> ()
  | Some p ->
      Gpo_obs.Lock.with_lock lock (fun () ->
          journal_guarded p (fun () ->
              match p.writer with
              | None -> ()
              | Some w ->
                  Guard.Fault.probe "journal.flush";
                  Journal.sync w))

let detach () =
  match !persist with
  | None -> ()
  | Some p ->
      Gpo_obs.Lock.with_lock lock (fun () ->
          (match p.writer with
          | Some w -> ( try Journal.close w with _ -> ())
          | None -> ());
          persist := None)

let journal_stats () =
  match !persist with
  | None -> J.Obj [ ("attached", J.Bool false) ]
  | Some p ->
      let recovery =
        match !last_recovery_ref with
        | None -> J.Null
        | Some r ->
            J.Obj
              [
                ("recovered", J.Int r.recovered);
                ("rejected", J.Int r.rejected);
                ("invalidated", J.Int r.invalidated);
                ("torn_bytes", J.Int r.torn_bytes);
                ("compacted", J.Bool r.compacted);
              ]
      in
      J.Obj
        [
          ("attached", J.Bool true);
          ("path", J.String p.path);
          ( "bytes",
            match p.writer with
            | Some w -> J.Int (Journal.bytes w)
            | None -> J.Null );
          ("recovery", recovery);
        ]

let attach ?(compact_bytes = 8 lsl 20) dir =
  detach ();
  List.iter Gpo_obs.Counter.touch
    [ c_recovered; c_recovery_rejected; c_appends; c_journal_errors;
      c_compactions ];
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
    else if not (Sys.is_directory dir) then
      failwith (dir ^ " exists and is not a directory");
    let path = Filename.concat dir "results.journal" in
    let recovery =
      Gpo_obs.Span.time "serve.journal.recover" (fun () ->
          Gpo_obs.Lock.with_lock lock (fun () ->
              let read = Journal.read path in
              match read.Journal.records with
              | [] ->
                  (* Empty or missing file: nothing to recover.  Any
                     trailing garbage (a header torn by a crash during
                     the very first write) is dropped wholesale. *)
                  { recovered = 0; rejected = 0; invalidated = 0;
                    torn_bytes =
                      (if read.Journal.torn then
                         let size =
                           try (Unix.stat path).Unix.st_size with _ -> 0
                         in
                         size - read.Journal.good_bytes
                       else 0);
                    compacted = false }
              | header :: records -> (
                  let file_size =
                    try (Unix.stat path).Unix.st_size with _ -> 0
                  in
                  let torn_bytes =
                    if read.Journal.torn then
                      file_size - read.Journal.good_bytes
                    else 0
                  in
                  match header_matches header with
                  | `Bad | `Semantics ->
                      (* Unrecognized file or a semantics bump: every
                         entry is incomparable with fresh runs — drop
                         them wholesale. *)
                      { recovered = 0; rejected = 0;
                        invalidated = List.length records;
                        torn_bytes; compacted = true }
                  | `Ok ->
                      let staged : (key, string * Engine.outcome) Hashtbl.t =
                        Hashtbl.create 64
                      in
                      let rejected = ref 0 in
                      List.iter
                        (fun payload ->
                          match admit payload with
                          | Ok (k, net, outcome) ->
                              (* Last writer wins across duplicates. *)
                              Hashtbl.replace staged k (net, outcome)
                          | Error _ -> incr rejected)
                        records;
                      let recovered = ref 0 in
                      Hashtbl.iter
                        (fun k (net, outcome) ->
                          (* Entries stored by this process stay
                             authoritative over the disk copy. *)
                          if not (Hashtbl.mem table k) then begin
                            Hashtbl.replace table k
                              { outcome; net = Some net };
                            incr recovered
                          end)
                        staged;
                      Gpo_obs.Gauge.set_int g_size (Hashtbl.length table);
                      { recovered = !recovered; rejected = !rejected;
                        invalidated = 0; torn_bytes;
                        compacted =
                          read.Journal.torn || !rejected > 0
                          || List.length records > Hashtbl.length staged
                          || file_size > compact_bytes })))
    in
    let p = { path; compact_bytes; writer = None } in
    (* Rewrite the file to exactly the admitted set whenever recovery
       dropped anything (torn tail, rejects, duplicates, semantics
       bump) — the journal never re-serves what recovery refused. *)
    Gpo_obs.Lock.with_lock lock (fun () ->
        let w =
          if recovery.compacted || not (Sys.file_exists path) then begin
            let w =
              Journal.create p.path
                (header_payload () :: live_records_locked ())
            in
            if recovery.compacted then Gpo_obs.Counter.incr c_compactions;
            w
          end
          else Journal.open_append path
        in
        p.writer <- Some w;
        Gpo_obs.Gauge.set_int g_journal_bytes (Journal.bytes w);
        persist := Some p);
    Gpo_obs.Counter.add c_recovered recovery.recovered;
    Gpo_obs.Counter.add c_recovery_rejected recovery.rejected;
    last_recovery_ref := Some recovery;
    Ok recovery
  with
  | Failure msg -> Error msg
  | Unix.Unix_error (err, fn, arg) ->
      Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message err))
  | Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Lookup and store                                                    *)

let evict k = Gpo_obs.Lock.with_lock lock (fun () -> evict_locked k)

let find ?verify_net k =
  let found =
    Gpo_obs.Lock.with_lock lock (fun () ->
        Option.map (fun e -> e.outcome) (Hashtbl.find_opt table k))
  in
  match found with
  | None ->
      Gpo_obs.Counter.incr c_miss;
      None
  | Some outcome -> (
      match verify_net with
      | Some net when not (verifies net outcome) ->
          evict k;
          Gpo_obs.Counter.incr c_miss;
          None
      | _ ->
          Gpo_obs.Counter.incr c_hit;
          Some outcome)

let store ?net_text k (o : Engine.outcome) =
  if o.Engine.stop <> Guard.Completed then false
  else begin
    Gpo_obs.Lock.with_lock lock (fun () ->
        let e = { outcome = o; net = net_text } in
        Hashtbl.replace table k e;
        Gpo_obs.Gauge.set_int g_size (Hashtbl.length table);
        journal_append_locked k e);
    Gpo_obs.Counter.incr c_store;
    true
  end
