(** Uniform interface over the four verification engines of Table 1.

    Each engine takes a safe net and answers the deadlock question,
    reporting the exploration size in its own metric: visited markings
    for the explicit engines, GPN states for GPO, peak BDD nodes for
    the symbolic engine. *)

type kind =
  | Full  (** Conventional exhaustive analysis ("States" column). *)
  | Stubborn  (** Stubborn-set partial order ("SPIN+PO" column). *)
  | Symbolic  (** BDD reachability ("SMV" column). *)
  | Gpo  (** Generalized partial order ("GPO" column). *)

type outcome = {
  kind : kind;
  states : float;
      (** Visited states (explicit/GPO) or reachable markings (symbolic). *)
  metric : float;
      (** The Table 1 size metric: states for explicit/GPO engines,
          peak live BDD nodes for the symbolic engine. *)
  deadlock : bool;
  time_s : float;  (** Wall-clock analysis time. *)
  stop : Guard.stop_reason;
      (** Why the run ended.  [Completed] iff the engine covered its
          whole state space; any other reason ([State_budget],
          [Deadline], [Memory], ...) makes a clean verdict
          inconclusive.  A [deadlock = true] verdict is sound under any
          stop reason — partial exploration only visits reachable
          states. *)
  witness : Petri.Trace.t option;
      (** When requested and [deadlock = true]: a firing sequence from
          the initial marking to a dead marking, reconstructed by the
          engine itself (predecessor maps for the explicit engines,
          layered preimages for the symbolic one, world linearization
          for GPO).  Check it independently with {!Certify}. *)
}

val truncated : outcome -> bool
(** [stop <> Completed]. *)

val all : kind list
(** The four engines in Table 1 column order. *)

val name : kind -> string
(** Display name ("full", "spin+po", "smv", "gpo"). *)

val run :
  ?max_states:int -> ?witness:bool -> ?gpo_scan:bool -> ?reduce:bool ->
  ?cancel:Par.Cancel.t -> ?guard:Guard.t -> ?jobs:int ->
  kind -> Petri.Net.t -> outcome
(** Run one engine.  [max_states] (default [5_000_000]) bounds the
    explicit engines and GPO; the symbolic engine ignores it.
    [witness] (default [false]) makes a [deadlock = true] verdict carry
    a counterexample firing sequence (costs predecessor recording /
    frontier-layer retention during the run).

    [cancel] is a cooperative cancellation token polled in every
    engine's step loop; a set token unwinds the run with
    [Par.Cancel.Cancelled] (used by {!Portfolio} to stop the losers).
    [guard] is a resource guard polled at the same points: a tripped
    deadline or memory budget ends the run early with a partial
    outcome whose [stop] carries the reason.  A genuine
    [Out_of_memory] — the allocator dying before any soft budget
    tripped — is caught here as well: the registered caches are
    dropped ({!Guard.relieve_memory}) and the run degrades to an
    outcome with [stop = Memory] instead of crashing.
    [jobs] (default [1]) is the number of GPO wave workers: the GPO
    explorer fans each wave of runs out over a pool of that many
    domains ({!Gpn.Explorer.analyse} with [~jobs]), with results
    bit-identical to [jobs = 1].  The full, spin+po and smv engines
    run on one domain and ignore it.

    [gpo_scan] (default [true]) selects the GPO configuration and is
    ignored by the other engines.  The default is the complete
    configuration with the deviation scan, the same default as
    [Gpn.Explorer.analyse ~scan].  [~gpo_scan:false] is the
    paper-faithful procedure (Section 3.3 as published): sound on any
    deadlock it {e finds}, but it can miss deadlocks on some nets.
    Only {!Experiment}, which reproduces Table 1, asks for it.

    [reduce] (default [false]) applies the deadlock-preserving
    structural reduction pipeline ({!Reduce.run}) to the net first and
    runs the engine on the reduced net; any witness is lifted back
    through the composed inverse mapping ({!Reduce.lift}) so it replays
    — and certifies — against the net the caller passed in.  The
    reduction runs inside the same recovery envelope as the engine: an
    allocation failure degrades it to the identity reduction and the
    engine sees the unreduced net. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One-line rendering: name, metric, deadlock verdict, time. *)
