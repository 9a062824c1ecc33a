(** The warm-state verification daemon.

    One server process owns one {!Scheduler} — one worker pool, one
    result cache, one set of world-set tables — and answers
    {!Protocol} requests over a listening socket, connection by
    connection.  Because the process outlives the requests, the second
    identical question costs a cache lookup plus a witness replay
    instead of a state-space exploration.

    The accept loop is sequential (one connection at a time); the
    parallelism lives {e inside} a batch, where jobs fan out over the
    scheduler's pool.  Clients that want concurrent batches open one
    connection each and the admission bound arbitrates. *)

type endpoint =
  | Unix_path of string  (** Unix-domain stream socket at this path. *)
  | Tcp of { host : string; port : int }
      (** TCP socket; [port] 0 lets the OS pick (the bound port is
          reported through [on_ready]). *)

val pp_endpoint : Format.formatter -> endpoint -> unit

val sockaddr : endpoint -> Unix.sockaddr
(** The address of an endpoint, for the server and the client alike.
    [localhost] and [""] are the loopback address; any other host is an
    IP literal or a name the resolver knows.  Raises [Failure
    "unknown host \"HOST\""] otherwise. *)

val serve :
  ?jobs:int ->
  ?queue_limit:int ->
  ?max_requests:int ->
  ?cache_dir:string ->
  ?io_timeout_s:float ->
  ?on_ready:(endpoint -> unit) ->
  endpoint ->
  unit
(** Run the daemon until a [Shutdown] request, a drain signal, or
    [max_requests] processed frames (used by tests and the CI smoke to
    bound the run).  [jobs]/[queue_limit] configure the {!Scheduler}.
    [on_ready] fires once the socket is listening, with the {e actual}
    endpoint (TCP port resolved).

    The socket listens before anything else is set up.  At a Unix path
    the server removes only a socket that refuses connections (its
    daemon is gone); a live socket or any other file at the path is left
    alone.  Raises [Failure], naming the endpoint, when it cannot listen:
    the path is in use or is not a socket, the host is unknown, or
    [socket]/[bind]/[listen] fails.  Nothing is left set up then.

    [cache_dir] opts into the persistent result cache: the journal at
    [cache_dir/results.journal] is recovered ({!Harness.Result_cache.attach}
    — recovery details via {!Harness.Result_cache.last_recovery} and
    the [Stats] reply) {e before} the first connection is accepted,
    every finished store is journaled, and the journal is fsynced and
    closed on every exit path.  Raises [Failure] when the directory is
    unusable.

    [io_timeout_s] (default 30, [<= 0] disables) arms per-connection
    [SO_RCVTIMEO]/[SO_SNDTIMEO] deadlines: a client that stalls
    mid-frame or stops reading gets one typed [Timed_out] reply
    (counted by [serve.conn.timeouts]) and its socket closed — it can
    never head-of-line-block the accept loop forever.

    Graceful drain: the first SIGTERM/SIGINT stops accepting and lets
    the in-flight batch finish under its own guards; a second signal
    also cancels in-flight engines ({!Scheduler.cancel_inflight}).
    Both paths flush the journal and return normally — a drained
    server exits 0.  Previous signal dispositions are restored on
    exit.

    Installs {!Gpo_obs.null_sink} for the process lifetime when no
    sink is active, so scoped per-request capture works without global
    observability flags; SIGPIPE is ignored so a client hangup
    surfaces as [EPIPE] on the write and closes that connection only.
    The Unix socket path is unlinked on exit. *)
