(** Structural conflict relation and maximal conflicting sets.

    Two transitions are {e in conflict} when they share an input place
    (Definition 2.2).  The reflexive-transitive closure of this relation
    partitions the transitions into {e clusters}; a cluster with at least
    two members is a maximal conflicting set (MCS) in the sense of the
    paper, and the places shared inside it are the {e conflict places}.

    The analysis precomputes this structural information once per net;
    the {e dynamic} MCSs of a marking (maximal sets of conflicting
    transitions that are currently enabled) are obtained by restricting
    the clusters to an enabled set. *)

type t

val analyse : Net.t -> t
(** Precompute the conflict relation of a net. *)

val net : t -> Net.t
(** The net the analysis was computed for. *)

val in_conflict : t -> Net.transition -> Net.transition -> bool
(** [in_conflict c t u] is Definition 2.2: [•t ∩ •u ≠ ∅].  Reflexive for
    transitions with a non-empty preset. *)

val conflicting : t -> Net.transition -> Bitset.t
(** [conflicting c t] is the set of transitions sharing an input place
    with [t] (including [t] itself when [•t ≠ ∅]). *)

val cluster_of : t -> Net.transition -> int
(** Index of the conflict cluster (connected component of the conflict
    relation) containing the transition. *)

val clusters : t -> Bitset.t array
(** All conflict clusters, as transition sets; singleton clusters are
    transitions in conflict with nobody else. *)

val cluster_members : t -> int -> Bitset.t
(** Transition set of a cluster, by cluster index. *)

val is_choice_transition : t -> Net.transition -> bool
(** [true] iff the transition belongs to a cluster of size ≥ 2, i.e.
    actually competes with another transition for some input place. *)

val conflict_places : t -> Bitset.t
(** The set of conflict places: places with at least two consumers. *)

val dynamic_mcs : t -> Bitset.t -> Bitset.t list
(** [dynamic_mcs c enabled] partitions the [enabled] transitions into
    maximal sets of (transitively) conflicting enabled transitions —
    the connected components of the conflict relation restricted to
    [enabled].  Order follows the smallest member of each set. *)
