(** Safety checking by reduction to deadlock detection.

    Section 4 of the paper: "obtained results are also valid for safety
    checks, since the verification of a safety property can always be
    reduced to a check for deadlock".  This module implements that
    reduction for {e coverability} properties — "the places of [bad]
    can never be marked simultaneously" — so any of the library's
    deadlock engines (conventional, stubborn, symbolic, GPO) can decide
    them.

    The {!monitor} construction adds a [run] lock that every original
    transition borrows as a self-loop, an always-enabled [tick] on the
    lock (masking genuine deadlocks of the original net), and a
    [violate] transition that steals the lock when the bad places are
    covered.  The transformed net deadlocks iff the original net can
    cover the bad places:

    - if the cover is reachable, [violate] fires there, the lock is
      gone, and nothing — not even [tick] — can fire;
    - otherwise [tick] is enabled forever and no marking is dead. *)

type property = {
  name : string;  (** Used in the monitor's place/transition names. *)
  never_all : Net.place list;
      (** The property holds iff these places are never all marked
          simultaneously.  A singleton expresses "this place is never
          marked". *)
}

val monitor : Net.t -> property -> Net.t
(** [monitor net property] builds the transformed net described above,
    named [<net name>.<property name>].  Raises [Invalid_argument] if [never_all] is empty or mentions an
    unknown place. *)

val covers : property -> Bitset.t -> bool
(** [covers property m]: all places of [never_all] are marked in [m]. *)

val project_monitor_witness : Net.t -> Net.transition list -> Net.transition list
(** [project_monitor_witness net trace] maps a firing sequence of
    [monitor net property] back to the {e original} [net]: the sequence
    is cut at the first [violate] firing and the [tick] self-loops are
    erased (the monitor keeps original transitions at their original
    indices, so the rest maps unchanged).  Applied to a deadlock
    witness of the monitored net, the result replays on [net] to a
    marking covering [never_all]. *)

val violated_explicit : ?max_states:int -> Net.t -> property -> bool
(** Ground truth by direct exhaustive search on the {e original} net:
    [true] iff some reachable marking covers [never_all].  Raises
    [Failure] if the exploration is truncated. *)

val covering_marking :
  ?max_states:int -> Net.t -> property -> Net.transition list option
(** A firing sequence of the original net reaching a covering marking,
    or [None] when the property holds (within the budget). *)
