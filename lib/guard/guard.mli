(** Resource governance: deadlines, memory budgets, typed stop
    reasons, and deterministic fault injection.

    Every engine run ends for exactly one {!stop_reason}.  A run that
    covered its whole state space stops with {!Completed}; every other
    reason marks the result as partial, and the harness must treat a
    clean-looking partial result as inconclusive — never as a proof.

    A {!t} bundles the two soft budgets:

    - a {e deadline} — absolute wall clock, checked by {!poll} from the
      engine step loops (the same places that poll [Par.Cancel]);
    - a {e memory budget} — a [Gc] alarm trips the guard at the end of
      a major collection once the heap exceeds the budget, so the run
      unwinds at the next poll instead of dying inside the allocator.
      {!poll} double-checks the heap size directly in case the alarm
      has not fired yet.

    Both trip points are sticky: the first reason wins and every later
    {!poll} re-raises it, so a tripped guard also stops any sibling
    domain polling the same guard.  As a last resort, callers that
    catch a genuine [Out_of_memory] can call {!relieve_memory} to drop
    registered caches before building a degraded result.

    Telemetry: [guard.deadline.trips] and [guard.mem.trips] count the
    budgets that fired; [fault.injected] counts injected faults. *)

(** Why a run stopped. *)
type stop_reason =
  | Completed  (** Ran to the natural end of its state space. *)
  | State_budget  (** The [max_states] budget was hit. *)
  | Deadline  (** The wall-clock deadline expired. *)
  | Memory  (** The soft memory budget was exceeded. *)
  | Cancelled  (** A [Par.Cancel] token was tripped (race loser). *)
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

val pp_stop : Format.formatter -> stop_reason -> unit

exception Interrupted of stop_reason
(** Raised by {!poll} when a budget has tripped.  Engines catch this
    around their step loop and return a partial result carrying the
    reason; it never escapes an engine entry point. *)

type t

val create :
  ?deadline_s:float -> ?mem_mb:int -> ?poll_mask:int -> unit -> t
(** [create ~deadline_s ~mem_mb ()] arms a guard [deadline_s] seconds
    from now with a soft heap budget of [mem_mb] megabytes.  Omitted
    budgets never trip.  The memory budget installs a [Gc] alarm
    (per-domain: create the guard in the domain that runs the engine);
    {!dispose} removes it.  [poll_mask] (a power of two minus one,
    default [63]) rate-limits the clock/heap reads in {!poll}: the
    budgets are re-checked every [poll_mask + 1] calls, while a trip
    already recorded is re-raised on every call. *)

val poll : t -> unit
(** Cheap check for the hottest loops: re-raise a recorded trip (one
    atomic load), and every [poll_mask + 1] calls read the clock and
    heap size.  Raises {!Interrupted}. *)

val poll_now : t -> unit
(** {!poll} without the rate limit — for coarse loops (one BDD
    fixpoint iteration, one GPN world expansion) whose step already
    dwarfs a clock read. *)

val check : ?cancel:Par.Cancel.t -> ?guard:t -> unit -> unit
(** The engine step-loop check: poll the cancellation token (raising
    [Par.Cancel.Cancelled]) then {!poll} the guard (raising
    {!Interrupted}).  Either may be absent. *)

val check_now : ?cancel:Par.Cancel.t -> ?guard:t -> unit -> unit
(** {!check} with {!poll_now} semantics. *)

val tripped : t -> stop_reason option
(** The recorded trip, if any (without raising). *)

val stop : t -> stop_reason
(** {!tripped}, with [Completed] when the guard never tripped. *)

val trip : t -> stop_reason -> unit
(** Record [reason] if the guard has not tripped yet (first one
    wins).  Used by the portfolio to tie a guard to a cancel token. *)

val dispose : t -> unit
(** Remove the [Gc] alarm, if any.  Idempotent. *)

val with_guard :
  ?deadline_s:float -> ?mem_mb:int -> ?poll_mask:int -> (t -> 'a) -> 'a
(** [create], run, [dispose] (also on exceptions). *)

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
    ["reach.step"]; ["gpo.step"], ["smv.iter"]; the interning layer
    has ["bitset.intern"] and ["worldset.op"]; the witness walk-backs
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
    ([Par.Cancel.Cancelled]). *)
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
