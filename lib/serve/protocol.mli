(** Wire protocol of the verification service.

    One request/response round trip is a pair of {e length-prefixed
    JSON frames}: a 4-byte big-endian payload length followed by that
    many bytes of UTF-8 JSON.  Framing and codecs live here so the
    server, the client and the tests share one definition; the
    scheduler gives the types their meaning.

    A {e job} is one verification question — net, property, engine,
    budgets — and a {e request} carries a batch of jobs (or a control
    operation).  A {e job result} carries the full machine-readable
    {!Harness.Report} JSON of the verdict plus the service's own
    fields: cache/dedupe provenance, certification, and a per-request
    telemetry summary. *)

(** Where the net of a job comes from. *)
type net_source =
  | Inline of string
      (** The net itself, in the textual format of {!Petri.Parser} —
          content-addressed by the server, so two clients sending the
          same net text share cache entries. *)
  | Model of { id : string; size : int }
      (** A builtin model family (nsdp, asat, over, rw, scheduler,
          random, figN) instantiated at [size]. *)

type job = {
  id : string;  (** Client-chosen label echoed in the result. *)
  net : net_source;
  cover : string list;
      (** Safety property: these places are never all marked at once
          (by name, on the source net).  Empty = deadlock freedom. *)
  engine : string;
      (** full | po | smv | gpo | portfolio (aliases as in the CLI). *)
  max_states : int;
  witness : bool;
  reduce : bool;
  jobs : int;  (** GPO wave workers {e inside} this job's engine run. *)
  timeout_s : float option;  (** Per-job wall-clock budget. *)
  mem_mb : int option;  (** Per-job soft heap budget. *)
}

val job :
  ?id:string ->
  ?cover:string list ->
  ?engine:string ->
  ?max_states:int ->
  ?witness:bool ->
  ?reduce:bool ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?mem_mb:int ->
  net_source ->
  job
(** Job smart constructor with the server-side defaults: engine [gpo],
    [max_states] 5_000_000, witness on (certification is the point of
    the service), reduce off, jobs 1, no budgets. *)

type status =
  | Ok
  | Failed of string
      (** The job errored before or during its run (unparseable net,
          unknown engine or model, injected fault, out of memory) —
          the {e other} jobs of the batch are unaffected. *)

type job_result = {
  id : string;
  status : status;
  cached : bool;  (** Served from the content-addressed result cache. *)
  deduped : bool;
      (** Duplicate of an earlier job in the same batch; its result
          was computed once and shared. *)
  certified : bool option;
      (** [Some true] when the violation witness passed independent
          replay certification, [Some false] when it was rejected;
          [None] when there was nothing to certify (no violation, or
          no witness requested). *)
  report : Gpo_obs.Json.t option;
      (** {!Harness.Report.json_of_outcome} of the verdict —
          byte-identical between a cache hit and the run that
          populated the entry. *)
  metrics : Gpo_obs.Json.t;
      (** {!Gpo_obs.summarize_events} of this request's scoped event
          capture (serve.request span, engine spans, instants). *)
}

type request =
  | Submit of job list
  | Ping
  | Stats  (** Server-lifetime telemetry snapshot + cache stats. *)
  | Shutdown  (** Graceful stop: the server replies, then exits. *)

type reject = { reason : string; limit : int; batch : int }
(** Typed admission rejection: the [batch] holds more jobs than the
    queue [limit].  [reason] is ["queue_full"]. *)

type response =
  | Results of job_result list  (** One per job, in request order. *)
  | Rejected of reject
  | Pong
  | Stats_reply of Gpo_obs.Json.t
  | Bye
  | Timed_out
      (** The connection blew its per-I/O deadline (slow-loris or
          stalled peer); the server sends this best-effort and closes
          the socket.  Typed so clients can classify it as transient. *)
  | Error of string  (** Malformed request (protocol-level). *)

val classify : job_result -> Harness.Query.verdict
(** The {!Harness.Query.verdict} of one result: its decoded report
    classified with its [certified] field.  A [Failed] job, a missing
    report or one that does not decode is [Failed]. *)

type verdict = Holds | Violated | Inconclusive

val verdict_of_result : job_result -> (verdict, string) result
(** {!classify}, collapsed onto three answers: [Error] carries the
    failure message of a job without an answer, or ["certification
    failed"] for an [Untrusted] one. *)

(** {1 JSON codecs} *)

val json_of_job : job -> Gpo_obs.Json.t
val job_of_json : Gpo_obs.Json.t -> (job, string) result
val json_of_result : job_result -> Gpo_obs.Json.t
val result_of_json : Gpo_obs.Json.t -> (job_result, string) result
val json_of_request : request -> Gpo_obs.Json.t
val request_of_json : Gpo_obs.Json.t -> (request, string) result
val json_of_response : response -> Gpo_obs.Json.t
val response_of_json : Gpo_obs.Json.t -> (response, string) result

(** {1 Framing} *)

val max_frame : int
(** Refuse frames larger than this (64 MiB) — a corrupt length prefix
    must not turn into an unbounded allocation. *)

(** Typed framing failures — every way a peer can misbehave on the
    wire, distinguished so the server can answer {!Timed_out} to a
    stalled client but a plain [Error] to a malformed one, and so the
    client retry policy can tell transient from fatal. *)
type frame_error =
  | Frame_timeout  (** SO_RCVTIMEO/SO_SNDTIMEO expired mid-I/O. *)
  | Frame_oversized of int  (** Length prefix beyond {!max_frame}. *)
  | Frame_truncated of string  (** EOF mid-header or mid-payload. *)

val describe_frame_error : frame_error -> string

exception Frame of frame_error
(** Raised by {!write_frame} (oversized payload, send timeout); read
    paths return {!Bad} instead of raising. *)

val set_timeouts : Unix.file_descr -> float -> unit
(** Arm [SO_RCVTIMEO]/[SO_SNDTIMEO] (seconds) on a socket.
    Best-effort: silently a no-op where unsupported. *)

type 'a incoming =
  | Payload of 'a
  | Eof  (** Clean close before the first length byte. *)
  | Bad of frame_error

val write_frame : Unix.file_descr -> string -> unit
(** Write one length-prefixed frame, looping over partial writes.
    Raises {!Frame} on an oversized payload or a send timeout. *)

val read_frame : Unix.file_descr -> string incoming
(** Read one frame.  Timeouts, oversized prefixes and truncation come
    back as {!Bad} — after any of them frame synchronisation is lost
    and the connection must be closed. *)

val send : Unix.file_descr -> Gpo_obs.Json.t -> unit
(** Render and {!write_frame}. *)

val recv : Unix.file_descr -> (Gpo_obs.Json.t, string) result incoming
(** {!read_frame} and parse (a frame that arrives intact but holds
    broken JSON is [Payload (Error _)] — the connection survives). *)
