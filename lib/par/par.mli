(** Multicore execution primitives (OCaml 5 domains).

    Three building blocks for the parallel drivers:

    - {!Cancel} — a cooperative cancellation token.  Engines poll it in
      their step loops ({!Cancel.check}) and unwind with
      {!Cancel.Cancelled} when some other domain has called
      {!Cancel.cancel}; the portfolio uses this to stop the losers the
      moment a winner produces a conclusive verdict.
    - {!Pool} — a fixed pool of worker domains, sized by
      [Domain.recommended_domain_count] unless told otherwise.  The
      calling domain participates in every {!Pool.run}, so a pool of
      size [n] really computes with [n] domains while only [n - 1] are
      spawned.
    - {!Wsq} — per-worker work queues with stealing, the frontier
      structure of the parallel explicit exploration.

    Telemetry: [par.cancel.requests] / [par.cancel.observed] count
    cancellation handshakes (the tests use the latter to prove losers
    actually stopped), [par.steals] counts successful steals and
    [par.pool.tasks] the tasks executed by pools. *)

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

  val is_set_opt : t option -> bool
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
      the remaining worker. *)

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

(** Per-worker work queues with stealing. *)
module Wsq : sig
  type 'a t

  val create : unit -> 'a t

  val push : 'a t -> 'a -> unit
  (** Owner push (back of the queue). *)

  val pop : 'a t -> 'a option
  (** Owner pop, newest first (depth-first on local work).  After a
      steal has normalized the queue, the remaining pre-steal elements
      drain in FIFO order. *)

  val steal : 'a t -> 'a option
  (** Thief pop, oldest first. *)

  val take_any : 'a t array -> int -> 'a option
  (** [take_any queues w]: pop worker [w]'s own queue, else steal
      round-robin from the others; [None] only when every queue was
      observed empty. *)
end
