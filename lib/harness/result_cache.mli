(** Content-addressed verification result cache.

    The warm-state service answers repeated queries in O(1) by keying
    every finished {!Engine.outcome} on the {e content} of the question:
    the net digest ({!Petri.Net.digest}), the property, the engine
    configuration that produced the verdict, and a semantics version
    stamp.  Two jobs with the same key are the same question — the
    engines are deterministic (bit-identical across worker counts, see
    DESIGN.md "Parallel GPN"), so the cached report {e is} the report a
    fresh run would produce.

    Soundness rules:

    - only [stop = Completed] outcomes are ever stored — a partial
      result is an answer to a {e budget}, not to the net, and must
      never be served to a later query with different budgets of its
      own ({!store} refuses them);
    - a cached violation is re-certified on every hit when the caller
      provides the net: the witness is replayed through
      {!Certify.deadlock} and the entry is evicted if it no longer
      checks out — a cache hit never weakens the certification story;
    - {!semantics_version} is part of every key, so changing engine
      semantics (and bumping the stamp) orphans every stale entry
      instead of serving wrong answers.

    Memory governance: the cache registers with
    {!Guard.on_memory_pressure} like the world-set memo tables — a
    pressure event bumps the cache generation and sweeps every entry
    (counted by [serve.cache.evicted]), so [--mem-mb] trips and genuine
    [Out_of_memory] recovery reach the result cache too.

    Persistence ({!attach}): an opt-in append-only journal (one file,
    [results.journal], under the attach directory) built on {!Journal}.
    Every store of an entry that carries its net text appends one
    record; recovery on attach re-admits only records that decode,
    whose net text hashes to the digest embedded in their key, and
    whose witness still re-certifies by replay — "nothing is served
    that would not re-certify".  A torn tail (kill -9 mid-append) is
    dropped at the first bad checksum; a semantics-version mismatch in
    the journal header invalidates the file wholesale; duplicates
    resolve last-writer-wins.  Whenever recovery dropped anything the
    file is immediately compacted to exactly the admitted set.
    Journaling is best-effort: an I/O failure (or injected fault at
    the ["journal.append"] / ["journal.flush"] / ["journal.compact"]
    probe sites) counts [serve.journal.errors] and the in-memory store
    still succeeds.

    Telemetry: [serve.cache.hit] / [serve.cache.miss] /
    [serve.cache.store] / [serve.cache.evicted] counters and the
    [serve.cache.size] gauge; persistence adds [serve.recovered],
    [serve.recovery.rejected], [serve.journal.appends],
    [serve.journal.errors], [serve.journal.compactions] and the
    [serve.journal.bytes] gauge. *)

val semantics_version : string
(** The engine-semantics stamp baked into every key.  Bump it whenever
    a change makes old cached verdicts incomparable with fresh runs. *)

type key
(** A content-addressed cache key. *)

val key :
  ?semantics:string ->
  ?property:string ->
  digest:string ->
  engine:string ->
  max_states:int ->
  witness:bool ->
  gpo_scan:bool ->
  reduce:bool ->
  unit ->
  key
(** Build the key for one job.  [digest] is {!Petri.Net.digest} of the
    net the engine actually runs on (for safety queries: the monitored
    net); [property] is the canonical property rendering (absent for
    plain deadlock); [engine] is the engine (or ["portfolio"]) name;
    the remaining fields are the {!Engine.run} switches that change
    what a run computes.  [semantics] defaults to
    {!semantics_version} and is exposed for the differential tests
    only.  Worker count is deliberately {e not} part of the key: it
    only sets the GPO wave workers, whose results are bit-identical
    across [jobs] (the explicit and symbolic engines ignore it). *)

val render : key -> string
(** Stable one-line rendering of a key (diagnostics, tests). *)

val find : ?verify_net:Petri.Net.t -> key -> Engine.outcome option
(** Look the key up.  With [verify_net], a hit that claims a violation
    with a witness is re-certified by replay ({!Certify.deadlock}
    against [verify_net]); an entry whose witness no longer certifies
    is evicted and misses.  Counts [serve.cache.hit] /
    [serve.cache.miss]. *)

val evict : key -> unit
(** Drop the entry under [key], if any (counted by
    [serve.cache.evicted]).  For a caller that certifies a hit itself
    and rejects it. *)

val store : ?net_text:string -> key -> Engine.outcome -> bool
(** Cache a finished outcome.  Returns [false] — and stores nothing —
    when [outcome.stop <> Completed]: partial results never poison the
    cache.  Counts [serve.cache.store].  [net_text] is the canonical
    rendering ({!Petri.Parser.to_string}) of the net the outcome talks
    about; when present and a journal is attached the entry is also
    appended to disk (entries without it stay memory-only — they could
    never be re-certified on recovery). *)

val invalidate : unit -> unit
(** Bump the generation and sweep every entry (each counted by
    [serve.cache.evicted]).  This is the {!Guard.on_memory_pressure}
    hook; exposed for tests and for an explicit [serve] flush. *)

val generation : unit -> int
(** The current cache generation (bumped by every {!invalidate}). *)

val size : unit -> int
(** Live entries. *)

val entries : unit -> (string * Engine.outcome) list
(** Rendered key and outcome of every live entry (test introspection:
    the chaos suite asserts no non-[Completed] entry ever appears). *)

(** {1 Persistence} *)

type recovery = {
  recovered : int;  (** Entries re-admitted after passing every gate. *)
  rejected : int;
      (** Records that decoded as frames but failed admission: partial
          outcomes, digest mismatches, witnesses that no longer
          certify, undecodable payloads. *)
  invalidated : int;
      (** Entries dropped wholesale on a header/semantics mismatch. *)
  torn_bytes : int;  (** Bytes discarded from a torn tail. *)
  compacted : bool;  (** The file was rewritten to the admitted set. *)
}

val attach : ?compact_bytes:int -> string -> (recovery, string) result
(** [attach dir] opens (creating if needed) [dir/results.journal],
    recovers it into the in-memory table (in-memory entries stored by
    this process win over the disk copy), and starts journaling every
    subsequent {!store} that carries a net text.  [compact_bytes]
    (default 8 MiB) is the file-size threshold that triggers an
    in-place compaction to the live entry set.  Errors (unwritable
    directory, ...) are returned, never raised. *)

val detach : unit -> unit
(** Close the journal and stop persisting.  Idempotent. *)

val attached : unit -> bool

val flush_journal : unit -> unit
(** {!Journal.sync} the journal (fsync barrier) — the graceful-drain
    hook.  No-op when detached or after a dropped writer. *)

val last_recovery : unit -> recovery option
(** The report of the most recent {!attach}, for [--stats] and the
    startup banner. *)

val journal_stats : unit -> Gpo_obs.Json.t
(** [{"attached":…,"path":…,"bytes":…,"recovery":…}] for the server's
    stats endpoint. *)
