(** Resource governance: deadlines, memory budgets, cancellation, typed
    stop reasons, and deterministic fault injection.

    Every engine run ends for exactly one {!stop_reason}.  A run that
    covered its whole state space stops with {!Completed}; every other
    reason marks the result as partial, and the harness must treat a
    clean-looking partial result as inconclusive — never as a proof.

    A {!t} is the one stop signal of an engine run.  It trips for one
    of three reasons:

    - a {e deadline} — absolute wall clock, checked by {!poll} from the
      engine step loops;
    - a {e memory budget} — {!poll} reads the heap size, so the run
      stops at its next step instead of dying inside the allocator;
    - {e cancellation} — {!trip} [g Cancelled], by whoever owns [g] or
      one of its ancestors: the portfolio stops its race losers this
      way, the service its in-flight jobs on a hard drain.

    Guards form a tree through [?parent]: a guard stops when it or any
    ancestor has tripped, so one {!trip} on a parent reaches every
    guard below it.  Each domain polls a guard of its own ({!poll}
    writes a countdown), created below the shared one.

    Trips are sticky: the first reason wins and every later {!poll}
    re-raises it.  As a last resort, callers that catch a genuine
    [Out_of_memory] can call {!relieve_memory} to drop registered caches
    before building a degraded result.

    Telemetry: [guard.deadline.trips], [guard.mem.trips] and
    [guard.cancel.trips] count the guards that tripped for each reason
    (each trip also emits a [guard.trip] instant carrying it);
    [fault.injected] counts injected faults. *)

(** Why a run stopped. *)
type stop_reason =
  | Completed  (** Ran to the natural end of its state space. *)
  | State_budget  (** The [max_states] budget was hit. *)
  | Deadline  (** The wall-clock deadline expired. *)
  | Memory  (** The soft memory budget was exceeded. *)
  | Cancelled
      (** The guard or an ancestor was tripped [Cancelled] (race loser,
          service drain). *)
  | Crashed of string  (** The engine died with the given exception. *)

val string_of_stop : stop_reason -> string
(** Stable machine-readable tag: ["completed"], ["state_budget"],
    ["deadline"], ["memory"], ["cancelled"], ["crashed: <msg>"]. *)

val stop_of_string : string -> stop_reason option
(** Inverse of {!string_of_stop} — used by the persistent result-cache
    journal to decode recovered outcomes.  [None] on an unknown tag. *)

val describe_stop : stop_reason -> string
(** Human-readable phrase for messages ("wall-clock deadline
    exceeded", ...). *)

exception Interrupted of stop_reason
(** Raised by {!poll} when a guard has tripped.  Engines catch this
    around their step loop and return a partial result carrying the
    reason.  Two callers let it escape: a witness walk
    ({!check_cancelled}), and GPO's set-up, which has no run to return
    yet when it trips while building a large initial world set. *)

type t

val create : ?parent:t -> ?deadline_s:float -> ?mem_mb:int -> unit -> t
(** [create ~parent ~deadline_s ~mem_mb ()] arms a guard [deadline_s]
    seconds from now with a soft heap budget of [mem_mb] megabytes,
    below [parent].  Omitted budgets never trip; the guard stops when
    it or any ancestor trips, and polling it also checks its
    ancestors' budgets. *)

val poll : t -> unit
(** Cheap check for the hottest loops: re-raise a recorded trip of the
    guard or an ancestor (one atomic load per level), and every 64
    calls read the clock and heap size.  Raises {!Interrupted}.  Poll a
    guard from one domain at a time. *)

val poll_now : t -> unit
(** {!poll} without the rate limit — for coarse loops (one BDD
    fixpoint iteration, one GPN world expansion) whose step already
    dwarfs a clock read.  Safe to call from several domains on one
    guard. *)

val check : ?guard:t -> unit -> unit
(** The engine step-loop check: {!poll} the guard, if any. *)

val check_now : ?guard:t -> unit -> unit
(** {!check} with {!poll_now} semantics. *)

val check_cancelled : ?guard:t -> unit -> unit
(** The witness-walk check: raise [Interrupted Cancelled] iff the guard
    or an ancestor was tripped [Cancelled].  A deadline or memory trip
    does not stop a walk, so a violation found before the budget ran
    out still gets its witness. *)

val tripped : t -> stop_reason option
(** The recorded trip of the guard, else of its nearest tripped
    ancestor, if any (without raising). *)

val stop : t -> stop_reason
(** {!tripped}, with [Completed] when neither the guard nor an
    ancestor tripped. *)

val trip : t -> stop_reason -> unit
(** Record [reason] if the guard has not tripped yet (first one wins;
    idempotent, domain-safe).  [trip g Cancelled] is how a run is
    cancelled: every guard below [g] stops at its next poll. *)

val on_memory_pressure : (unit -> unit) -> unit
(** Register a hook that drops a recoverable cache (e.g. the world-set
    memo tables).  Hooks run in {!relieve_memory}; exceptions they
    raise are swallowed. *)

val relieve_memory : unit -> unit
(** Run every registered pressure hook, then [Gc.compact ()].  Called
    by the harness after catching [Out_of_memory] so the degraded
    result can be built without dying again. *)

(** Deterministic fault injection.

    A global, seeded schedule of simulated faults at named probe
    points in the engine hot loops ([Reachability]/[Stubborn] share
    ["reach.step"]; ["gpo.step"], ["smv.iter"]; the world-set algebra
    has ["worldset.op"]; the witness walk-backs
    have ["reach.witness"], ["smv.witness"], ["gpo.witness"]; the
    structural reduction pipeline probes ["reduce.rule"] once per rule
    pass).  When disabled — the default — a probe is one atomic load
    and a branch.  When enabled, each probe draws from a
    splitmix-style PRNG keyed on [(seed, site, per-site call index)],
    so a given seed yields the same fault schedule on every run: the
    chaos suite replays failures exactly.

    Injected faults are the resource failures the guard layer must
    absorb: a simulated allocation failure ([Out_of_memory]), a
    scheduling delay, or a cancellation storm
    ([Interrupted Cancelled]). *)
module Fault : sig
  type kind = Oom | Delay | Cancel

  val enable :
    ?rate:float ->
    ?kinds:kind list ->
    ?sites:string list ->
    ?max_injections:int ->
    int ->
    unit
  (** [enable seed] arms the global fault schedule.  [rate] (default
      [0.01]) is the per-probe injection probability; [kinds] (default
      all three) the faults drawn from; [sites] (default: all)
      restricts injection to the named probe points; [max_injections]
      (default: unlimited) stops injecting after that many faults.
      Resets the per-site counters, so schedules are reproducible. *)

  val disable : unit -> unit

  val enabled : unit -> bool

  val injected : unit -> int
  (** Faults injected since the last {!enable}. *)

  val probe : string -> unit
  (** [probe site] possibly injects a fault.  Free (one atomic load)
      while disabled. *)

  val with_faults :
    ?rate:float ->
    ?kinds:kind list ->
    ?sites:string list ->
    ?max_injections:int ->
    int ->
    (unit -> 'a) ->
    'a
  (** Scoped {!enable}/{!disable} (also on exceptions). *)
end
