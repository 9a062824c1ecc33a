(** Client side of the verification service: connect to a
    {!Server.endpoint}, exchange {!Protocol} frames, fold transport and
    protocol failures into a {e typed} [result] — typed so the retry
    policy can distinguish what a retry can fix from what it cannot. *)

(** Everything that can go wrong below the response level. *)
type failure =
  | Refused of string  (** Could not connect (daemon down/restarting). *)
  | Timed_out of string
      (** An I/O deadline expired — ours ([io_timeout_s]) or the
          server's (a typed {!Protocol.Timed_out} reply). *)
  | Closed  (** The server closed the connection before replying. *)
  | Protocol_error of string
      (** Torn/oversized frame, broken JSON, undecodable response. *)
  | Io of string
      (** Any other [Unix] error, or a host that does not resolve. *)

val describe_failure : failure -> string

val transient : failure -> bool
(** [true] for {!Refused} and {!Timed_out} — the failures a retry with
    backoff can plausibly fix, and the only ones [submit] auto-retries
    (every request is idempotent: a question over content-addressed
    state, never a mutation, so re-asking is always safe). *)

val connect : Server.endpoint -> Unix.file_descr
(** Open a connection.  Raises [Unix.Unix_error] when nobody listens,
    and [Failure] for an unknown host ({!Server.sockaddr}). *)

val request :
  Unix.file_descr -> Protocol.request -> (Protocol.response, failure) result
(** One round trip on an open connection. *)

val with_connection :
  ?io_timeout_s:float ->
  Server.endpoint ->
  (Unix.file_descr -> (Protocol.response, failure) result) ->
  (Protocol.response, failure) result
(** Connect, arm the socket deadlines ([io_timeout_s], off by
    default), run, always close; connection failures become
    [Error (Refused _)], and an unknown host [Error (Io _)], which is
    not retried. *)

val submit :
  ?retries:int ->
  ?backoff_ms:int ->
  ?rng:Random.State.t ->
  ?io_timeout_s:float ->
  Server.endpoint ->
  Protocol.job list ->
  (Protocol.response, failure) result
(** Submit a batch.  With [retries > 0] (default 0), a transient
    failure — a refused connection or an i/o timeout — is retried up to
    [retries] times with exponential backoff and {e full jitter}: attempt
    [k] sleeps uniformly in [\[0, backoff_ms * 2^k\]] milliseconds
    (default base 50 ms, ceiling 10 s), so a herd of restarting clients
    spreads out instead of stampeding the recovering daemon.  A reply is
    final, the typed [queue_full] rejection included: the server refuses
    exactly the batches larger than its limit.  [rng] pins the jitter for
    deterministic tests.  Each retry is logged as a
    [serve.client.retry] instant. *)

val ping :
  ?io_timeout_s:float -> Server.endpoint -> (Protocol.response, failure) result

val stats :
  ?io_timeout_s:float -> Server.endpoint -> (Protocol.response, failure) result

val shutdown :
  ?io_timeout_s:float -> Server.endpoint -> (Protocol.response, failure) result

val wait_ready : ?attempts:int -> ?delay_s:float -> Server.endpoint -> bool
(** Poll [ping] until the server answers — for scripts that fork the
    daemon and race its bind (default 100 attempts, 50ms apart). *)
