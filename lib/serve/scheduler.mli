(** Batch scheduling with warm state, admission control, and the
    content-addressed result cache.

    One scheduler owns one {!Par.Pool}; every submitted batch fans its
    jobs out over the pool's worker domains.  Because the scheduler
    lives as long as the server process, everything the engines warm up
    — the world-set unique table and computed table, the
    {!Harness.Result_cache} — stays warm across batches: the first
    request pays cold-start, later identical requests are O(1) cache
    hits and near-identical ones reuse the hash-consed world-set
    nodes.

    {b Admission control.}  A batch of more than [queue_limit] jobs is
    refused {e whole} with a typed {!Protocol.response.Rejected}
    carrying the limit and the batch size.  Admitted batches run one at
    a time, in the order they take the scheduler's run lock;
    {!Server.serve} submits one connection's batch at a time, so the
    lock only orders embedders that call {!submit} from several
    threads.  {!Client.submit} does not retry a rejection: the same
    batch would be refused again.

    {b Deduplication.}  Jobs inside one batch are deduped by cache key
    (net digest + property + engine config): the second occurrence
    waits for the first instead of recomputing, and its result is
    flagged [deduped] (counted by [serve.batch.deduped]).

    {b Isolation.}  Each job runs under its own {!Guard} (armed with
    the job's [timeout_s]/[mem_mb], below the scheduler's drain guard),
    its telemetry is captured with {!Gpo_obs.Scoped} and attached to
    the result as a JSON summary, and a failure — bad input rejected by
    {!Harness.Query.prepare} (parse error, unknown model, place or
    engine, a size the model rejects), injected fault ({!Guard.Fault}
    probes [serve.request]), allocator death — is contained to that
    job's [Failed] status.  Faulted or truncated runs
    are never stored in the result cache. *)

type t

val create : ?jobs:int -> ?queue_limit:int -> unit -> t
(** [create ~jobs ~queue_limit ()] spawns the worker pool ([jobs]
    domains, default 1; 0 = the machine's recommended count) and admits
    batches of at most [queue_limit] jobs (default 64, clamped to at
    least 1). *)

val pool_jobs : t -> int
val queue_limit : t -> int

val submit : t -> Protocol.job list -> Protocol.response
(** Run one batch: [Results] (one per job, in order) or [Rejected]
    when admission control refuses it.  Never raises on job-level
    failures — they come back as [Failed] results. *)

val cancel_inflight : t -> unit
(** Trip the scheduler-wide drain guard [Cancelled]: every in-flight
    run — single engine or portfolio — stops at its next step-loop
    poll, and the batch returns with those jobs [Failed "cancelled"]
    (never cached).  Cache hits are still served.  One-way — only for
    the hard phase of a graceful drain. *)

val shutdown : t -> unit
(** Join the worker pool.  The scheduler must be idle. *)
