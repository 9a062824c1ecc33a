module J = Gpo_obs.Json

type net_source = Inline of string | Model of { id : string; size : int }

type job = {
  id : string;
  net : net_source;
  cover : string list;
  engine : string;
  max_states : int;
  witness : bool;
  reduce : bool;
  jobs : int;
  timeout_s : float option;
  mem_mb : int option;
}

let job ?(id = "") ?(cover = []) ?(engine = "gpo") ?(max_states = 5_000_000)
    ?(witness = true) ?(reduce = false) ?(jobs = 1) ?timeout_s ?mem_mb net =
  { id; net; cover; engine; max_states; witness; reduce; jobs; timeout_s; mem_mb }

type status = Ok | Failed of string

type job_result = {
  id : string;
  status : status;
  cached : bool;
  deduped : bool;
  certified : bool option;
  report : J.t option;
  metrics : J.t;
}

type request = Submit of job list | Ping | Stats | Shutdown
type reject = { reason : string; limit : int; batch : int }

type response =
  | Results of job_result list
  | Rejected of reject
  | Pong
  | Stats_reply of J.t
  | Bye
  | Timed_out
  | Error of string

type verdict = Holds | Violated | Inconclusive

let classify r =
  match (r.status, r.report) with
  | Failed msg, _ -> Harness.Query.Failed msg
  | Ok, None -> Harness.Query.Failed "no report attached"
  | Ok, Some report -> (
      match Harness.Report.outcome_of_json report with
      | Stdlib.Error msg -> Harness.Query.Failed msg
      | Stdlib.Ok o -> Harness.Query.verdict o ~certified:r.certified)

let verdict_of_result r =
  match classify r with
  | Harness.Query.Holds -> Stdlib.Ok Holds
  | Harness.Query.Violated -> Stdlib.Ok Violated
  | Harness.Query.Inconclusive _ -> Stdlib.Ok Inconclusive
  | Harness.Query.Untrusted -> Stdlib.Error "certification failed"
  | Harness.Query.Failed msg -> Stdlib.Error msg

(* ------------------------------------------------------------------ *)
(* JSON codecs                                                         *)

let ( let* ) = Result.bind

let field name json =
  match J.member name json with
  | Some v -> Stdlib.Ok v
  | None -> Stdlib.Error (Printf.sprintf "missing field %S" name)

let string_field ?default name json =
  match (J.member name json, default) with
  | Some (J.String s), _ -> Stdlib.Ok s
  | (None | Some J.Null), Some d -> Stdlib.Ok d
  | None, None -> Stdlib.Error (Printf.sprintf "missing field %S" name)
  | Some _, _ -> Stdlib.Error (Printf.sprintf "field %S: expected string" name)

let opt_default default = function Some v -> v | None -> default

let int_field ?default name json =
  match (J.member name json, default) with
  | Some (J.Int i), _ -> Stdlib.Ok i
  | (None | Some J.Null), Some d -> Stdlib.Ok d
  | _, _ -> Stdlib.Error (Printf.sprintf "field %S: expected int" name)

let bool_field ?default name json =
  match (J.member name json, default) with
  | Some (J.Bool b), _ -> Stdlib.Ok b
  | (None | Some J.Null), Some d -> Stdlib.Ok d
  | _, _ -> Stdlib.Error (Printf.sprintf "field %S: expected bool" name)

(* A field whose absence (or [null]) means "none". *)
let option_field name ~expected decode json =
  match J.member name json with
  | None | Some J.Null -> Stdlib.Ok None
  | Some v -> (
      match decode v with
      | Some x -> Stdlib.Ok (Some x)
      | None ->
          Stdlib.Error (Printf.sprintf "field %S: expected %s" name expected))

let json_of_net_source = function
  | Inline text -> J.Obj [ ("inline", J.String text) ]
  | Model { id; size } ->
      J.Obj [ ("model", J.String id); ("size", J.Int size) ]

let net_source_of_json json =
  match (J.member "inline" json, J.member "model" json) with
  | Some (J.String text), None -> Stdlib.Ok (Inline text)
  | None, Some (J.String id) ->
      let* size = int_field ~default:4 "size" json in
      Stdlib.Ok (Model { id; size })
  | _ -> Stdlib.Error "net: expected {\"inline\":…} or {\"model\":…,\"size\":…}"

let json_of_job (j : job) =
  J.Obj
    [
      ("id", J.String j.id);
      ("net", json_of_net_source j.net);
      ("cover", J.List (List.map (fun p -> J.String p) j.cover));
      ("engine", J.String j.engine);
      ("max_states", J.Int j.max_states);
      ("witness", J.Bool j.witness);
      ("reduce", J.Bool j.reduce);
      ("jobs", J.Int j.jobs);
      ("timeout_s", match j.timeout_s with None -> J.Null | Some s -> J.Float s);
      ("mem_mb", match j.mem_mb with None -> J.Null | Some m -> J.Int m);
    ]

let job_of_json json =
  let* net_json = field "net" json in
  let* net = net_source_of_json net_json in
  let* cover =
    match J.member "cover" json with
    | None | Some J.Null -> Stdlib.Ok []
    | Some (J.List items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match item with
            | J.String s -> Stdlib.Ok (s :: acc)
            | _ -> Stdlib.Error "cover: expected a list of place names")
          items (Stdlib.Ok [])
    | Some _ -> Stdlib.Error "cover: expected a list of place names"
  in
  let* id = string_field ~default:"" "id" json in
  let* engine = string_field ~default:"gpo" "engine" json in
  let* max_states = int_field ~default:5_000_000 "max_states" json in
  let* witness = bool_field ~default:true "witness" json in
  let* reduce = bool_field ~default:false "reduce" json in
  let* jobs = int_field ~default:1 "jobs" json in
  let* timeout_s =
    option_field "timeout_s" ~expected:"number"
      (function
        | J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None)
      json
  in
  let* mem_mb =
    option_field "mem_mb" ~expected:"int"
      (function J.Int i -> Some i | _ -> None)
      json
  in
  Stdlib.Ok
    { id; net; cover; engine; max_states; witness; reduce; jobs; timeout_s;
      mem_mb }

let json_of_status = function
  | Ok -> J.String "ok"
  | Failed msg -> J.Obj [ ("failed", J.String msg) ]

let status_of_json = function
  | J.String "ok" -> Stdlib.Ok Ok
  | J.Obj _ as o -> (
      match J.member "failed" o with
      | Some (J.String msg) -> Stdlib.Ok (Failed msg)
      | _ -> Stdlib.Error "status: expected \"ok\" or {\"failed\":…}")
  | _ -> Stdlib.Error "status: expected \"ok\" or {\"failed\":…}"

let json_of_result r =
  J.Obj
    [
      ("id", J.String r.id);
      ("status", json_of_status r.status);
      ("cached", J.Bool r.cached);
      ("deduped", J.Bool r.deduped);
      ( "certified",
        match r.certified with None -> J.Null | Some b -> J.Bool b );
      ("report", match r.report with None -> J.Null | Some j -> j);
      ("metrics", r.metrics);
    ]

let result_of_json json =
  let* id = string_field "id" json in
  let* status_json = field "status" json in
  let* status = status_of_json status_json in
  let* cached = bool_field ~default:false "cached" json in
  let* deduped = bool_field ~default:false "deduped" json in
  let certified =
    match J.member "certified" json with Some (J.Bool b) -> Some b | _ -> None
  in
  let report =
    match J.member "report" json with
    | None | Some J.Null -> None
    | Some j -> Some j
  in
  let metrics = opt_default J.Null (J.member "metrics" json) in
  Stdlib.Ok { id; status; cached; deduped; certified; report; metrics }

let json_of_request = function
  | Submit jobs ->
      J.Obj
        [ ("op", J.String "submit");
          ("jobs", J.List (List.map json_of_job jobs)) ]
  | Ping -> J.Obj [ ("op", J.String "ping") ]
  | Stats -> J.Obj [ ("op", J.String "stats") ]
  | Shutdown -> J.Obj [ ("op", J.String "shutdown") ]

let request_of_json json =
  let* op = string_field "op" json in
  match op with
  | "ping" -> Stdlib.Ok Ping
  | "stats" -> Stdlib.Ok Stats
  | "shutdown" -> Stdlib.Ok Shutdown
  | "submit" -> (
      match J.member "jobs" json with
      | Some (J.List items) ->
          let* jobs =
            List.fold_right
              (fun item acc ->
                let* acc = acc in
                let* j = job_of_json item in
                Stdlib.Ok (j :: acc))
              items (Stdlib.Ok [])
          in
          Stdlib.Ok (Submit jobs)
      | _ -> Stdlib.Error "submit: expected a \"jobs\" list")
  | other -> Stdlib.Error (Printf.sprintf "unknown op %S" other)

let json_of_response = function
  | Results rs ->
      J.Obj
        [ ("ok", J.Bool true);
          ("results", J.List (List.map json_of_result rs)) ]
  | Rejected r ->
      J.Obj
        [
          ("ok", J.Bool false);
          ( "reject",
            J.Obj
              [
                ("reason", J.String r.reason);
                ("limit", J.Int r.limit);
                ("batch", J.Int r.batch);
              ] );
        ]
  | Pong -> J.Obj [ ("ok", J.Bool true); ("pong", J.Bool true) ]
  | Stats_reply stats -> J.Obj [ ("ok", J.Bool true); ("stats", stats) ]
  | Bye -> J.Obj [ ("ok", J.Bool true); ("bye", J.Bool true) ]
  | Timed_out -> J.Obj [ ("ok", J.Bool false); ("timed_out", J.Bool true) ]
  | Error msg -> J.Obj [ ("ok", J.Bool false); ("error", J.String msg) ]

let response_of_json json =
  let* ok = bool_field "ok" json in
  if ok then
    match (J.member "results" json, J.member "pong" json,
           J.member "stats" json, J.member "bye" json) with
    | Some (J.List items), _, _, _ ->
        let* rs =
          List.fold_right
            (fun item acc ->
              let* acc = acc in
              let* r = result_of_json item in
              Stdlib.Ok (r :: acc))
            items (Stdlib.Ok [])
        in
        Stdlib.Ok (Results rs)
    | None, Some (J.Bool true), _, _ -> Stdlib.Ok Pong
    | None, None, Some stats, _ -> Stdlib.Ok (Stats_reply stats)
    | None, None, None, Some (J.Bool true) -> Stdlib.Ok Bye
    | _ -> Stdlib.Error "ok response without results/pong/stats/bye"
  else
    match
      (J.member "reject" json, J.member "error" json,
       J.member "timed_out" json)
    with
    | Some rj, _, _ ->
        let* reason = string_field "reason" rj in
        let* limit = int_field "limit" rj in
        let* batch = int_field "batch" rj in
        Stdlib.Ok (Rejected { reason; limit; batch })
    | None, Some (J.String msg), _ -> Stdlib.Ok (Error msg)
    | None, None, Some (J.Bool true) -> Stdlib.Ok Timed_out
    | _ -> Stdlib.Error "error response without reject/error/timed_out"

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let max_frame = 1 lsl 26

type frame_error =
  | Frame_timeout
  | Frame_oversized of int
  | Frame_truncated of string

let describe_frame_error = function
  | Frame_timeout -> "i/o timeout"
  | Frame_oversized n -> Printf.sprintf "oversized frame (%d bytes)" n
  | Frame_truncated what -> "truncated " ^ what

exception Frame of frame_error

let () =
  Printexc.register_printer (function
    | Frame e -> Some ("Protocol.Frame(" ^ describe_frame_error e ^ ")")
    | _ -> None)

(* SO_RCVTIMEO/SO_SNDTIMEO expiry surfaces as EAGAIN (or EWOULDBLOCK /
   ETIMEDOUT depending on the OS) from the blocking call. *)
let timeout_errno = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT -> true
  | _ -> false

let set_timeouts fd seconds =
  (* Best-effort: some socket-like fds (socketpairs on exotic
     platforms) may refuse; a missing timeout degrades to the old
     blocking behaviour, never to an error. *)
  try
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO seconds
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes off len
      with Unix.Unix_error (err, _, _) when timeout_errno err ->
        raise (Frame Frame_timeout)
    in
    write_all fd bytes (off + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then raise (Frame (Frame_oversized len));
  let header = Bytes.create 4 in
  Bytes.set_uint8 header 0 (len lsr 24 land 0xFF);
  Bytes.set_uint8 header 1 (len lsr 16 land 0xFF);
  Bytes.set_uint8 header 2 (len lsr 8 land 0xFF);
  Bytes.set_uint8 header 3 (len land 0xFF);
  write_all fd header 0 4;
  write_all fd (Bytes.unsafe_of_string payload) 0 len

(* Read exactly [len] bytes; [`Eof n] reports how many arrived before
   the peer closed.  A receive-timeout expiry raises [Frame
   Frame_timeout] — a peer that stalls mid-frame is indistinguishable
   from one that never finishes, and the caller must not wait forever. *)
let read_exact fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then `Ok buf
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> `Eof off
      | n -> go (off + n)
      | exception Unix.Unix_error (err, _, _) when timeout_errno err ->
          raise (Frame Frame_timeout)
  in
  go 0

type 'a incoming = Payload of 'a | Eof | Bad of frame_error

let read_frame fd =
  match read_exact fd 4 with
  | `Eof 0 -> Eof
  | `Eof _ -> Bad (Frame_truncated "frame header")
  | `Ok header -> (
      let len =
        (Bytes.get_uint8 header 0 lsl 24)
        lor (Bytes.get_uint8 header 1 lsl 16)
        lor (Bytes.get_uint8 header 2 lsl 8)
        lor Bytes.get_uint8 header 3
      in
      if len > max_frame then Bad (Frame_oversized len)
      else
        match read_exact fd len with
        | `Eof _ -> Bad (Frame_truncated "frame payload")
        | `Ok payload -> Payload (Bytes.unsafe_to_string payload))
  | exception Frame e -> Bad e

let send fd json = write_frame fd (J.to_string json)

let recv fd =
  match read_frame fd with
  | Eof -> Eof
  | Bad e -> Bad e
  | Payload payload -> Payload (J.of_string payload)
