(** Unified telemetry for the verification engines.

    Every engine reports to the same global registry of named
    {e counters} (monotonic), {e gauges} (last value wins),
    {e distributions} (log-bucketed histograms with p50/p90/p99) and
    {e spans} (timed, nested scopes).  Telemetry has two halves:

    - {b Aggregates} (counters, gauges, distributions, span totals)
      accumulate in the registry whenever instrumented code runs; they
      cost an unconditional integer update per hit.  {!reset} zeroes
      them, {!snapshot} reads them out, {!pp_summary} renders the
      human [--stats] block.
    - {b Events} (span begin/end, periodic progress samples, metadata,
      final totals) stream to the installed {!type-sink}.  With no sink
      installed ({!enabled}[ () = false]) the event half is off: spans
      cost one branch, samples cost one branch, nothing allocates.

    Sinks are pluggable: {!null_sink} drops every event (for overhead
    measurements with the event half on), {!jsonl_sink} writes one
    JSON object per line for offline analysis, {!memory_sink} retains
    events for tests.  The registry is global and domain-safe: counters
    and gauges are atomic, distributions and span totals are
    mutex-guarded, the span scope stack is domain-local, and events can
    be captured per domain with {!Scoped} and merged at report time.
    Callers delimit a measurement with {!reset}/{!snapshot} (or
    {!with_sink}); install/uninstall/reset themselves belong to the
    coordinating domain. *)

(** Minimal JSON values: the wire format of the JSONL sink and of the
    machine-readable bench reports ([BENCH_*.json]).  Self-contained so
    the toolkit needs no external JSON dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact single-line rendering.  Non-finite floats render as
      [null] (JSON has no representation for them). *)

  val to_channel : out_channel -> t -> unit
  (** [to_string] followed by a newline — one JSONL record. *)

  val of_string : string -> (t, string) result
  (** Parse one JSON value; [Error msg] names the first offence. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

type value = I of int | F of float | S of string | B of bool
(** Telemetry field values. *)

val json_of_value : value -> Json.t

type kind =
  | Counter_v
  | Gauge_v
  | Dist_v
  | Span_v
  | Sample_v
  | Meta_v
  | Instant_v  (** Point-in-time markers: guard trips, faults, cancels. *)
(** Event kinds, one per record type of the JSONL schema. *)

type event = {
  time : float;  (** Seconds since the sink was installed. *)
  kind : kind;
  dom : int;  (** Id of the domain that emitted the event. *)
  name : string;  (** Metric name, or span path like ["a/b"]. *)
  fields : (string * value) list;
}

val json_of_event : event -> Json.t
(** The JSONL schema:
    [{"t":…,"ev":"counter"|…,"dom":…,"name":…,"fields":{…}}]. *)

val event_of_json : Json.t -> (event, string) result
(** Inverse of {!json_of_event} (used by the round-trip tests and the
    CI smoke check). *)

type sink = {
  emit : event -> unit;
  flush : unit -> unit;
}

val null_sink : sink
(** Accepts and drops every event. *)

val jsonl_sink : (string -> unit) -> sink
(** [jsonl_sink write] renders each event with {!json_of_event} and
    passes the line (no trailing newline) to [write]. *)

val jsonl_channel_sink : out_channel -> sink
(** {!jsonl_sink} writing newline-terminated lines to a channel;
    [flush] flushes the channel. *)

val memory_sink : unit -> sink * (unit -> event list)
(** A sink retaining events in memory, with a reader returning them in
    emission order. *)

val tee_sink : sink -> sink -> sink
(** Duplicate every event (and flush) to both sinks, in order — e.g. a
    JSONL stream and an in-memory trace collector at once. *)

val install : sink -> unit
(** Make [sink] the destination of the event half (replacing any
    previous sink) and restart the event clock. *)

val uninstall : unit -> unit
(** Flush and remove the installed sink, if any. *)

val enabled : unit -> bool
(** [true] iff a sink is installed. *)

val emit : kind -> string -> (string * value) list -> unit
(** Emit one event to the installed sink; no-op when disabled. *)

val meta : string -> (string * value) list -> unit
(** [emit Meta_v]: tag the trace with run metadata (net, engine, …). *)

val instant : string -> (string * value) list -> unit
(** [emit Instant_v]: mark a point-in-time occurrence (guard trip,
    injected fault, cancellation) on the emitting domain's timeline. *)

(** Per-domain event capture, for code that runs engines on several
    domains at once (the portfolio racer, the parallel test drivers).
    While a capture is active on a domain, events emitted from that
    domain are buffered locally instead of being written to the shared
    sink; the coordinator replays the buffers it wants to keep once the
    race is decided — the JSONL trace stays a single coherent stream.
    Aggregates (counters, gauges, distributions, span totals) are
    unaffected: they accumulate globally, atomically, from every
    domain. *)
module Scoped : sig
  val capture : (unit -> 'a) -> 'a * event list
  (** Run the thunk with this domain's events buffered; return its
      result and the buffered events in emission order.  Nesting is
      allowed (the inner capture wins); captures on other domains are
      independent. *)

  val replay : event list -> unit
  (** Emit previously captured events to the installed sink (no-op when
      disabled).  Event timestamps are preserved from capture time. *)
end

(** Named monotonic counters. *)
module Counter : sig
  type t

  val make : string -> t
  (** Intern the counter named [name] (idempotent: the same name yields
      the same cell).  Typically called once at module initialisation. *)

  val incr : t -> unit
  val add : t -> int -> unit

  val touch : t -> unit
  (** Mark the counter active so it appears in the next {!snapshot}
      even at zero — engines touch their counters on entry so a stats
      block always shows the full set (e.g. [gpo.restarts 0]). *)

  val value : t -> int
  val name : t -> string
end

(** Named gauges: last value wins. *)
module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
  val set_int : t -> int -> unit
  val value : t -> float
end

(** Named distributions: lock-free log-bucketed histograms (HDR-style,
    8 sub-buckets per power-of-two octave, ~6% worst-case relative
    quantile error) with exact count / sum / min / max on the side.
    Observation is wait-free in the common case — an atomic count
    increment, CAS loops for sum/min/max, and one atomic bucket
    increment — so domains can observe concurrently without locks and
    their histograms merge by construction (one shared cell per
    name). *)
module Dist : sig
  type t

  val make : string -> t
  val observe : t -> float -> unit
  val observe_int : t -> int -> unit
  val count : t -> int
  val mean : t -> float

  val quantile : t -> float -> float
  (** [quantile d q] for [q] in [0,1]: approximate q-th quantile from
      the log buckets, clamped to the exact observed [min,max].
      Returns [nan] when the distribution is empty. *)

  val bucket_of_value : float -> int
  (** Index of the histogram bucket a value falls in (exposed for the
      bucketing tests). *)

  val bucket_mid : int -> float
  (** Representative (midpoint) value of a bucket index. *)

  val bucket_count : int
  (** Total number of buckets, including under/overflow. *)
end

(** Timed spans with nested scopes.  Nesting is tracked by a scope
    stack: a span entered while ["a"] is open aggregates under the path
    ["a/b"].  Aggregation and events only happen when {!enabled}; the
    disabled cost is one branch per [enter]/[exit]. *)
module Span : sig
  type t

  val enter : string -> t

  val exit : t -> unit
  (** [exit] should be called in LIFO order with [enter].  A violation
      (exiting a span that is not the innermost open one, or exiting
      twice) is detected, counted under [obs.span.misnested], and
      recovered from without corrupting the scope stack; the span's end
      event is tagged [misnested=true]. *)

  val time : string -> (unit -> 'a) -> 'a
  (** [time name f] = [enter]; [f ()]; [exit] (exception-safe). *)
end

(** Mutexes with contention probes.  [acquire] takes the uncontended
    fast path with [Mutex.try_lock]; only a contended acquisition pays
    for clock reads and a [lock.wait.<site>] span, and every
    acquisition records its wait time (zero when uncontended) in the
    [obs.lock.wait.<site>] distribution — so p99 exposes the contended
    fraction.  With telemetry disabled the cost is one branch over a
    plain [Mutex.lock]. *)
module Lock : sig
  type t

  val make : string -> t
  (** [make site] creates the mutex probing as
      [obs.lock.wait.<site>]. *)

  val acquire : t -> unit
  val release : t -> unit

  val with_lock : t -> (unit -> 'a) -> 'a
  (** [acquire]; run; [release] (exception-safe). *)
end

(** Periodic progress sampling, rate-limited per metric name.  Samples
    go to the sink as [Sample_v] events and, when a heartbeat printer
    is set, to it as a rendered one-line string (the CLI's stderr
    progress line for long runs).  When a sampled field is named
    ["states"], a derived ["states_per_s"] rate field is appended. *)
module Progress : sig
  val sample : string -> (unit -> (string * value) list) -> unit
  (** No-op unless a sink is installed or a heartbeat printer is set;
      otherwise evaluates the thunk at most once per 0.5 s per name. *)

  val set_heartbeat : (string -> unit) option -> unit
  (** Install (or remove) the heartbeat line printer. *)
end

type dist_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;  (** Approximate median (log-bucket quantile). *)
  p90 : float;
  p99 : float;
}
type span_stats = { count : int; total_s : float }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  dists : (string * dist_stats) list;
  spans : (string * span_stats) list;
}
(** Aggregate totals since the last {!reset}, each section sorted by
    name.  Only metrics touched since the reset are included. *)

val snapshot : unit -> snapshot
val reset : unit -> unit

val pp_summary : Format.formatter -> snapshot -> unit
(** The human [--stats] block.  Ends with a "top contended locks" line
    ranking the [obs.lock.wait.*] sites by total wait time when any
    lock probe fired. *)

val json_of_snapshot : snapshot -> Json.t

val emit_snapshot : unit -> unit
(** Stream the current snapshot to the sink as one event per metric
    ([Counter_v]/[Gauge_v]/[Dist_v]/[Span_v] records with final
    totals); no-op when disabled. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f]: {!install}[ s]; {!reset}; run [f]; stream the
    final snapshot with {!emit_snapshot}; {!uninstall} (also on
    exceptions); return [f ()]'s result. *)

(** Chrome trace-event export: render a captured event stream as the
    JSON format Perfetto and [chrome://tracing] load.  Spans become
    duration ([B]/[E]) events on one thread track per domain, counters
    and progress samples become counter ([C]) tracks, instants become
    instant ([i]) events, and metadata names the tracks.  The renderer
    tolerates unbalanced spans: stray ends are dropped and dangling
    begins are closed at the last timestamp, so traces from crashed or
    cancelled runs still load. *)
module Trace : sig
  val json_of_events : event list -> Json.t
  (** The full trace object:
      [{"traceEvents":[…],"displayTimeUnit":"ms"}]. *)

  val write_file : string -> event list -> unit
  (** Render and write a trace file at [path]. *)
end

val summarize_events : event list -> Json.t
(** Fold a captured event stream (from {!Scoped.capture}) into a
    compact JSON object:
    [{"events":N,"spans":{"name":{"count":…,"total_s":…},…},
      "instants":{"name":N,…}}] — span totals are rebuilt from the
    [phase=end] events, instants counted by name.  The verification
    service attaches this summary to every response so a client sees
    where its request spent its time without needing the full trace. *)
