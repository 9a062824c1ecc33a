(** Symbolic reachability analysis of safe Petri nets (Section 2.4).

    The SMV-style baseline of Table 1: one boolean variable per place,
    with current-state and next-state variables interleaved
    ([place p ↦ vars 2p and 2p+1]).  Each transition contributes a
    relation [enabled ∧ updates ∧ frame]; the reachable set is the
    least fixpoint of the image under the (partitioned) relation.
    "Peak BDD size" is the high-water mark of live nodes in the
    manager, together with the largest reachable-set BDD encountered —
    both are reported, the former is the Table 1 column. *)

type result = {
  states : float;
      (** Number of reachable markings ([sat_count] of the fixpoint). *)
  iterations : int;  (** Number of image steps to the fixpoint. *)
  peak_live_nodes : int;
      (** High-water mark of unique-table nodes — the "Peak BDD size". *)
  peak_set_nodes : int;
      (** Largest node count of the reachable-set BDD during the fixpoint. *)
  deadlock : Petri.Bitset.t option;
      (** Some deadlocked reachable marking, if one exists. *)
  witness : Petri.Net.transition list option;
      (** When requested and [deadlock = Some m]: a shortest firing
          sequence from the initial marking to [m], reconstructed by
          walking the BFS frontier layers backwards with per-transition
          preimages. *)
  stop : Guard.stop_reason;
      (** Why the fixpoint ended; any reason but [Completed] means the
          reachable set is only partially covered.  A deadlock found in
          a partial run is still sound — every marking in the partial
          fixpoint is reachable — but a clean partial run proves
          nothing. *)
  time_s : float;  (** Wall-clock time of the analysis. *)
}

val truncated : result -> bool
(** [stop <> Completed]. *)

val analyse :
  ?witness:bool -> ?guard:Guard.t -> Petri.Net.t -> result
(** Run the symbolic reachability analysis: one relation per
    transition, with the per-transition images accumulated at every
    fixpoint step.  [witness] (default
    [false]) retains the frontier layers during the fixpoint and, if a
    deadlock exists, reconstructs a concrete firing sequence to it
    (reported in the [witness] field; costs one live BDD per layer).
    [guard] is polled once per fixpoint iteration; a trip ends the
    fixpoint early with the partial reachable set and [stop] carrying
    the reason.  The witness walk-back checks it for cancellation only
    ({!Guard.check_cancelled}) and raises [Guard.Interrupted Cancelled]
    rather than return a partial trace.  Each analysis owns a fresh BDD
    manager, so the engine is domain-safe and needs no further
    synchronisation. *)

module Internal : sig
  (** Exposed for white-box tests. *)

  type encoding = {
    manager : Bdd.manager;
    n_places : int;
    current : int -> int;  (** Variable of place [p] in the current state. *)
    next : int -> int;  (** Variable of place [p] in the next state. *)
    initial : Bdd.t;
    enabled : Bdd.t array;  (** Per transition, over current variables. *)
    relations : Bdd.t array;  (** Per transition: enabled ∧ update ∧ frame. *)
  }

  val encode : Petri.Net.t -> encoding
  (** Build the boolean encoding of a net. *)

  val marking_of_cube : encoding -> (int * bool) list -> Petri.Bitset.t
  (** Decode a satisfying assignment over current variables. *)

  val cube_of_marking : encoding -> Petri.Bitset.t -> Bdd.t
  (** The characteristic function of one marking, over current
      variables (inverse of {!marking_of_cube}). *)

  val image : encoding -> Bdd.t -> Bdd.t
  (** One-step successors of a set of markings (partitioned relation). *)

  val preimage : encoding -> Bdd.t -> Bdd.t -> Bdd.t
  (** [preimage enc rel set] is the one-step predecessors of [set]
      (over current variables) under the single relation [rel] — the
      backward counterpart of {!image}, used by witness
      reconstruction. *)
end
