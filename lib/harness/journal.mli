(** Append-only file of checksummed, length-prefixed records — the
    storage layer under the persistent {!Result_cache} journal.

    On disk one record is
    [[u32 BE payload length][u64 BE FNV-1a of payload][payload]].
    The format is {e crash-only}: every append is flushed whole, so a
    writer killed at any instant (kill -9, power loss) leaves at worst
    a torn {e tail}; {!read} recovers the longest prefix of records
    whose lengths and checksums verify and reports where the good
    prefix ends.  Nothing after the first bad record is trusted —
    frame synchronisation may be lost there.

    The journal stores bytes; interpreting them (header records,
    semantics versions, cache entries) belongs to the caller. *)

val max_record : int
(** Refuse records larger than this (64 MiB, mirroring the wire
    protocol's frame cap) — a corrupt length prefix must not turn into
    an unbounded allocation. *)

val checksum : string -> int64
(** FNV-1a (64-bit) of a payload — exposed for the format tests. *)

(** {1 Reading} *)

type read_result = {
  records : string list;  (** Good records, in append order. *)
  good_bytes : int;  (** File offset just past the last good record. *)
  torn : bool;  (** Trailing bytes after [good_bytes] were dropped. *)
}

val read : string -> read_result
(** Read every verifiable record.  A missing file reads as empty; a
    torn or corrupted record ends the good prefix (everything from its
    first byte on is dropped and [torn] is set). *)

(** {1 Writing} *)

type writer

val open_append : string -> writer
(** Open for appending (creating an empty file if absent). *)

val create : string -> string list -> writer
(** [create path records] atomically replaces [path] with a fresh file
    holding exactly [records] (temp file + fsync + rename), then opens
    it for append — the compaction primitive.  A crash during [create]
    leaves the old file intact. *)

val append : writer -> string -> unit
(** Append one record and flush it to the OS (so a later kill -9 can
    only tear the record currently being written, never a finished
    one).  Raises [Invalid_argument] beyond {!max_record}. *)

val sync : writer -> unit
(** Flush and [fsync] — the graceful-drain barrier. *)

val close : writer -> unit
(** {!sync} then close.  Idempotent-ish: never raises on a dead fd. *)

val bytes : writer -> int
(** Current file size in bytes (drives the compaction threshold). *)

