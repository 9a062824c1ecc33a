(** Sets of transition sets — the markings of Generalized Petri Nets.

    A {e world} is a transition set ([Petri.Bitset.t] over transitions):
    a complete pre-resolution of every conflict cluster of the net (a
    "color" in the intuition of Section 3.1 of the paper, a {e valid
    transition set} in Definition 3.1).  A world set is a set of worlds:
    both the content [m(p)] of a GPN place and the valid-set component
    [r] of a GPN state are world sets.

    The representation is a big-endian Patricia trie over the interning
    ids ({!Petri.Bitset.id}) of its member worlds, with trie nodes
    canonicalized through a weak unique table.  Structurally equal sets
    are physically equal, [hash] and [cardinal] are O(1), and the set
    algebra is memoized in one fixed-size computed table shared by every
    domain.  See DESIGN.md, "The interning layer". *)

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
(** The minimum element by {!Petri.Bitset.compare}; raises
    [Not_found] on the empty set.  Content-determined so witness
    traces are reproducible across parallel runs (interning order is
    not). *)

val filter_member : int -> t -> t
(** [filter_member t ws] keeps the worlds containing transition [t] —
    the core of the multiple enabling rule (Definition 3.5). *)

val iter_uniform : (t -> Petri.Bitset.t -> unit) -> t -> t array -> unit
(** [iter_uniform f r sets], where every [sets.(i)] is a subset of [r],
    calls [f sub members] once per maximal subtree [sub] of [r]'s trie
    on which each [sets.(i)] is either empty or all of [sub]; [members]
    is the set of those [i] with [sub ⊆ sets.(i)], of width
    [Array.length sets].  The subtrees partition [r], and they come in
    trie order, which is interning order.  With a GPN state's place
    contents as [sets], [members] is the marking every world of [sub]
    denotes.  One descent, carrying down only the sets not yet
    decided. *)

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
    result is then the singleton of the empty world).  A product can
    hold hundreds of thousands of worlds, so it polls [guard] once per
    4 096 worlds it interns and at every trie node over 4 096 worlds; a
    trip raises {!Guard.Interrupted}. *)

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
(** [advance_node_ids n] makes every trie node created from now on take
    an id of at least [n]; it never lowers the id counter.  Node ids are
    process-wide and never reused, so a long-lived process reaches any
    bound eventually; tests use this to get there at once. *)
