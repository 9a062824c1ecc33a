(** Explicit-state reachability analysis (Section 2.2 of the paper).

    The explorer is generic in the {e expansion strategy}: at each
    visited marking a strategy selects which enabled transitions to
    fire.  {!full} fires all of them (conventional analysis, the
    "States" column of Table 1); {!Stubborn.strategy} fires a stubborn
    subset (partial-order analysis, the "SPIN+PO" column).

    Deadlocks are detected at every visited marking regardless of the
    strategy, so any deadlock-preserving strategy reports the same
    verdict as conventional analysis. *)

module Marking_table : Hashtbl.S with type key = Bitset.t
(** Hash tables keyed by markings. *)

type strategy = Net.t -> Bitset.t -> Net.transition list
(** [strategy net m] returns the transitions to fire from marking [m];
    each returned transition must be enabled in [m]. *)

type result = {
  net : Net.t;
  states : int;  (** Number of distinct visited markings. *)
  edges : int;  (** Number of explored firings. *)
  deadlocks : Bitset.t list;  (** Up to [max_deadlocks] deadlocked markings. *)
  deadlock_count : int;  (** Total number of deadlocked markings found. *)
  unsafe : (Net.transition * Bitset.t) list;
      (** Firings that violated 1-safeness, up to [max_deadlocks] of them. *)
  stop : Guard.stop_reason;
      (** Why the exploration ended: [Completed] iff the whole
          (strategy-reduced) state space was covered. *)
  predecessor : (Net.transition * Bitset.t) Marking_table.t option;
      (** When traces were requested: for each non-initial visited
          marking, the transition and marking it was first reached
          from. *)
  visited : unit Marking_table.t;  (** The set of visited markings. *)
}

val truncated : result -> bool
(** [true] iff the exploration did not cover its whole state space
    ([stop <> Completed]). *)

val full : strategy
(** Fire every enabled transition: conventional exhaustive analysis. *)

val explore :
  ?strategy:strategy ->
  ?max_states:int ->
  ?max_deadlocks:int ->
  ?traces:bool ->
  ?guard:Guard.t ->
  Net.t ->
  result
(** [explore net] runs a breadth-first exploration from the initial
    marking.  [strategy] defaults to {!full}; [max_states] (default
    [10_000_000]) bounds the number of visited states, recording
    [State_budget] when exceeded; [max_deadlocks] (default [16]) bounds
    the retained deadlock witnesses; [traces] (default [false]) records
    predecessors for counterexample extraction.  [guard] is polled
    once per expanded marking; a trip (deadline, memory budget,
    cancellation) ends the run early with the partial counts and
    [stop] carrying the reason. *)

val trace_to : ?guard:Guard.t -> result -> Bitset.t -> Net.transition list
(** [trace_to result m] reconstructs a firing sequence from the initial
    marking to [m].  Requires [explore ~traces:true]; raises
    [Invalid_argument] otherwise and [Not_found] if [m] was not
    visited.  [guard] is checked for cancellation only
    ({!Guard.check_cancelled}) at every walk-back step, so a race loser
    cannot linger in witness reconstruction: it raises
    [Guard.Interrupted Cancelled] before any partial trace escapes,
    while a deadline or memory trip lets the walk finish. *)

val deadlock_free : result -> bool
(** [true] iff no deadlocked marking was visited (meaningful only when
    [stop = Completed]). *)

val pp_summary : Format.formatter -> result -> unit
(** One-line summary: states, edges, deadlocks, stop reason. *)
