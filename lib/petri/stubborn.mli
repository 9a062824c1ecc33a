(** Stubborn-set partial-order reduction (Section 2.3 of the paper).

    Implements the classical deadlock-preserving stubborn-set method of
    Valmari for 1-safe Petri nets, the technique behind the "SPIN+PO"
    column of Table 1.  A set [S] of transitions is {e stubborn} at a
    marking [m] when:

    - for every disabled [t ∈ S] there is an unmarked input place [p]
      of [t] whose producers are all in [S] (no sequence of outside
      transitions can enable [t] before some [S]-transition fires);
    - for every enabled [t ∈ S] all transitions in structural conflict
      with [t] are in [S] (no outside transition can disable [t]);
    - [S] contains at least one enabled transition.

    Firing only the enabled members of a stubborn set at every marking
    preserves all deadlocks and the deadlock-freedom verdict.  No cycle
    proviso is needed for deadlock detection. *)

val compute : Conflict.t -> Bitset.t -> Net.transition list
(** [compute conflict m] returns the enabled transitions of a stubborn
    set at marking [m]: the closure of every enabled seed is tried and
    the one with the fewest enabled members is kept.  The empty list
    exactly on deadlocked markings. *)

val strategy : Conflict.t -> Reachability.strategy
(** Expansion strategy for {!Reachability.explore} firing a stubborn set
    at every marking. *)

val explore :
  ?max_states:int ->
  ?max_deadlocks:int ->
  ?traces:bool ->
  ?guard:Guard.t ->
  Net.t ->
  Reachability.result
(** Convenience wrapper: {!Reachability.explore} with {!strategy}. *)
