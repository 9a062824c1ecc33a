(** Multicore execution (OCaml 5 domains).

    {!Pool} is a fixed pool of worker domains, sized by
    [Domain.recommended_domain_count] unless told otherwise.  The
    calling domain participates in every {!Pool.run}, so a pool of
    size [n] really computes with [n] domains while only [n - 1] are
    spawned.  The GPO explorer runs each wave of restart runs on one,
    the portfolio its racing engines, and the service scheduler fans a
    batch's jobs out over another.  Runs are stopped through their
    [Guard.t], which the pool knows nothing about.

    Telemetry: [par.pool.tasks] counts the tasks executed by pools. *)

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
