(** Multicore execution primitives (OCaml 5 domains).

    Two building blocks for the parallel drivers:

    - {!Cancel} — a cooperative cancellation token.  Engines poll it in
      their step loops ({!Cancel.check}) and unwind with
      {!Cancel.Cancelled} when some other domain has called
      {!Cancel.cancel}; the portfolio uses this to stop the losers the
      moment a winner produces a conclusive verdict.
    - {!Pool} — a fixed pool of worker domains, sized by
      [Domain.recommended_domain_count] unless told otherwise.  The
      calling domain participates in every {!Pool.run}, so a pool of
      size [n] really computes with [n] domains while only [n - 1] are
      spawned.  The GPO explorer runs each wave of restart runs on
      one; the service scheduler fans a batch's jobs out over another.

    Telemetry: [par.cancel.requests] / [par.cancel.observed] count
    cancellation handshakes (the tests use the latter to prove losers
    actually stopped) and [par.pool.tasks] the tasks executed by
    pools. *)

(** Cooperative cancellation. *)
module Cancel : sig
  type t

  exception Cancelled

  val create : unit -> t

  val cancel : t -> unit
  (** Request cancellation (idempotent, domain-safe). *)

  val is_set : t -> bool

  val check : t -> unit
  (** Raise {!Cancelled} iff cancellation was requested.  Engines call
      this once per step — cheap enough for any hot loop (one atomic
      load). *)

  val check_opt : t option -> unit
  (** {!check} through an optional token; [None] never cancels. *)
end

(** A fixed pool of worker domains. *)
module Pool : sig
  type t

  val default_jobs : unit -> int
  (** [Domain.recommended_domain_count ()]. *)

  val resolve_jobs : int -> int
  (** The ["0 = auto"] worker-count convention of the CLI and the
      service: [n] itself when positive, {!default_jobs} otherwise. *)

  val create : ?jobs:int -> unit -> t
  (** Spawn a pool of [jobs] workers (default {!default_jobs}; clamped
      to at least 1).  [jobs - 1] domains are spawned — the caller is
      the remaining worker.  If a spawn fails (OCaml caps the number of
      live domains), the domains already spawned are stopped and joined
      before the exception is re-raised, so a failed [create] leaves no
      worker behind. *)

  val size : t -> int
  (** The worker count [jobs] the pool was created with. *)

  val run : t -> (unit -> unit) list -> unit
  (** Execute every thunk, the calling domain participating, and
      return when all are done.  If thunks raise, the first exception
      (in completion order) is re-raised after all have finished — the
      pool itself survives. *)

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Parallel map preserving input order.  Work is distributed over
      the pool; result order is independent of execution order. *)

  val iter : t -> ('a -> unit) -> 'a list -> unit

  val shutdown : t -> unit
  (** Join the worker domains.  The pool must be idle. *)

  val with_pool : ?jobs:int -> (t -> 'a) -> 'a
  (** [create], run, [shutdown] (also on exceptions). *)
end
