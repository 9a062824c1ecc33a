(** Sets of transition sets — the markings of Generalized Petri Nets.

    A {e world} is a transition set ([Petri.Bitset.t] over transitions):
    a complete pre-resolution of every conflict cluster of the net (a
    "color" in the intuition of Section 3.1 of the paper, a {e valid
    transition set} in Definition 3.1).  A world set is a set of worlds:
    both the content [m(p)] of a GPN place and the valid-set component
    [r] of a GPN state are world sets.

    The representation is a zero-suppressed decision diagram (Minato,
    DAC 1993) over transition variables, ordered as
    {!Petri.Bitset.compare} orders worlds: word 0 first, and within a
    word the sign bit first, then the other bits from the highest down.
    Nodes are canonicalized through a weak unique table: structurally
    equal sets are physically equal, [hash] and [cardinal] are O(1), and
    the set algebra is memoized in one fixed-size computed table shared
    by every domain.  See DESIGN.md, "World sets as decision
    diagrams". *)

type t

type world = Petri.Bitset.t

val empty : t
val is_empty : t -> bool
val singleton : world -> t
val add : world -> t -> t
val mem : world -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool

val equal : t -> t -> bool
(** Physical equality: sets are hash-consed. *)

val compare : t -> t -> int
(** A total order on sets by node id; consistent with {!equal}, but not
    a function of the sets' contents. *)

val hash : t -> int
(** Compatible with {!equal}. *)

val cardinal : t -> int

val choose : t -> world
(** The minimum element by {!Petri.Bitset.compare}, found along one
    path of the diagram (the variable order follows that order); raises
    [Not_found] on the empty set.  Content-determined, so witness traces
    are reproducible across parallel runs. *)

val filter_member : int -> t -> t
(** [filter_member t ws] keeps the worlds containing transition [t] —
    the core of the multiple enabling rule (Definition 3.5). *)

type 'a cuts =
  | Nothing  (** no world *)
  | Cut of 'a
  | Split of int * 'a cuts * 'a cuts
      (** [Split (t, without, with_)]: the worlds without transition [t],
          and those with it *)
(** A partition of a world set by the transitions its worlds hold. *)

val iter_uniform : (Petri.Bitset.t -> 'a) -> t -> t array -> 'a cuts
(** [iter_uniform f r sets], where every [sets.(i)] is a subset of [r],
    descends [r]'s diagram and cuts it wherever each [sets.(i)] is
    either empty or all of the part below; at each cut it calls [f
    members], where [members] is the set of those [i] whose set holds
    the part, of width [Array.length sets], and the result is the tree
    of cuts.  The cuts partition [r], and [f] meets them in increasing
    order of their worlds.  With a GPN state's place contents as [sets],
    [members] is the marking every world of the cut denotes, and a cut
    falls where the choices taken so far, in the variable order, decide
    it.  One descent,
    carrying down only the sets not yet decided; a world's cut is found
    by following its transitions down the tree. *)

val iter_cuts : ('a -> int -> (unit -> world) -> unit) -> 'a cuts -> t -> unit
(** [iter_cuts f cuts q], for [cuts] from [iter_uniform _ r _] and [q] a
    subset of [r]: [f x k least] for each cut [Cut x] that [q] meets, in
    increasing order of their worlds, where [k] is the number of [q]'s
    worlds in the cut and [least ()] builds the content-least of them.
    One descent of [q] along the tree. *)

val iter : (world -> unit) -> t -> unit
val fold : (world -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (world -> bool) -> t -> bool
val exists : (world -> bool) -> t -> bool

val elements : t -> world list
(** Elements in increasing {!Petri.Bitset.compare} order. *)

val of_list : world list -> t

val product : ?guard:Guard.t -> int -> t list -> t
(** [product width factors] is the set of unions [w1 ∪ ... ∪ wk] for
    every choice of [wi] in the [i]-th factor — used to build the
    initial valid sets [r0] as the product of per-cluster alternatives.
    [width] is the bit-set width used when [factors] is empty (the
    result is then the singleton of the empty world).  It is the join of
    the factors' diagrams; a product can take many nodes, so it polls
    [guard] once per 4 096 nodes the join makes, and a trip raises
    {!Guard.Interrupted}. *)

val touch_stats : unit -> unit
(** Mark the [worldset.*] telemetry counters active so they appear in
    snapshots even at zero. *)

val pp : ?name:(int -> string) -> unit -> Format.formatter -> t -> unit
(** Pretty-print as [{{a,b},{c}}] with element names. *)

val clear_caches : unit -> unit
(** Drop the computed table that memoizes union/inter/diff/filter_member.
    Every domain reads the one table, so this reaches them all at once;
    the next store allocates a fresh one.  Canonical forms are
    unaffected; used by {!Guard.on_memory_pressure} and by benchmarks
    to measure cold starts. *)

val advance_node_ids : int -> unit
(** [advance_node_ids n] makes every diagram node created from now on take
    an id of at least [n]; it never lowers the id counter.  Node ids are
    process-wide and never reused, so a long-lived process reaches any
    bound eventually; tests use this to get there at once. *)
