(** The deviation scan of a GPO state, one denotation class at a time.

    A {e denotation class} of a state is a marking that some of its
    valid worlds denote.  Every test the scan makes on a world depends
    on the world's marking alone, so the scan finds a state's classes in
    one descent of the world-set tries ({!World_set.iter_uniform}) and
    runs each test once per class.  A class's result carries the number
    of worlds it stands for and the content-least of them, which is the
    world a one-world-at-a-time scan would have sorted first.  See
    DESIGN.md, note 5. *)

type t
(** What the scan precomputes per analysis: the net's conflict-free
    transitions and, per transition, the conflict-free consumers of its
    post-set.  Immutable; shared by every walk of an analysis. *)

val create : Dynamics.ctx -> t

(** {1 Normal form} *)

val normal_form : t -> Petri.Bitset.t -> Petri.Bitset.t
(** Deadlock-equivalence normal form of a marking: fire the lowest-index
    enabled conflict-free transition until none is enabled, or, if the
    walk enters a cycle, the least marking of that cycle by
    {!Petri.Bitset.compare}.  The enabled conflict-free transitions are
    kept up to date incrementally, and no visited table is kept for the
    first |cf| + 1 firings. *)

val normal_form_walk : t -> Petri.Bitset.t -> Petri.Bitset.t
(** The same function as a walk that rescans the conflict-free
    transitions at every step and keeps every marking it visits, to
    detect the cycle.  {!normal_form} continues with it when its own
    walk runs long; tests use it as the reference. *)

(** {1 Denotation classes} *)

type classes
(** One state's denotation classes, the map from its valid worlds to
    them, and each class's enabled conflict-free transitions. *)

val classify : t -> State.t -> classes

val markings_meeting : classes -> World_set.t -> Petri.Bitset.t list
(** The distinct markings denoted by the worlds of a set of valid
    worlds, in no particular order. *)

(** {1 Deviation candidates} *)

val deviation :
  t ->
  classes ->
  World_set.world ->
  Petri.Net.transition ->
  Petri.Bitset.t * Petri.Bitset.t
(** [deviation sc cl v t], for a choice transition [t] enabled in the
    marking of the valid world [v]: that marking's [t]-successor and the
    successor's normal form, computed as the scan does, from the
    class's enabled conflict-free transitions (firing a choice
    transition disables none of them). *)

type candidate = {
  key : Petri.Bitset.t;  (** normal form of the deviating marking *)
  root : Petri.Bitset.t;  (** the deviating marking, a restart root *)
  world : World_set.world;
      (** the content-least world of the class within the queried set *)
  transition : Petri.Net.transition;
  deviations : int;
      (** the (world, transition) deviations the candidate stands for:
          the class's worlds in the queried set *)
  conditional : bool;
      (** dropped at merge time when [key] is denoted by then;
          cycle-closure restarts are unconditional *)
}

val compare_candidates : candidate -> candidate -> int
(** By (key, root, transition, world): a function of content alone. *)

val restarts :
  t ->
  classes ->
  conditional:bool ->
  known:(Petri.Bitset.t -> bool) ->
  Petri.Net.transition ->
  World_set.t ->
  candidate list
(** [restarts sc cl ~conditional ~known t ws]: one candidate per class
    meeting [ws], for its worlds firing [t].  A conditional candidate
    whose key is [known] is dropped. *)

type result = {
  denotations : Petri.Bitset.t list;
      (** the classes' normal forms that were not [known] *)
  candidates : candidate list;  (** unsorted *)
  rejections : World_set.t array;
      (** per choice transition [t], the worlds enabling [t] that chose
          otherwise: [s_enab.(t) \ m_enab.(t)]; empty elsewhere *)
}

val run :
  t ->
  classes ->
  known:(Petri.Bitset.t -> bool) ->
  s_enab:World_set.t array ->
  m_enab:World_set.t array ->
  prev:World_set.t array ->
  result
(** Scan one state.  For every choice transition [t], each class
    meeting the worlds newly rejecting [t] (its rejections minus
    [prev.(t)]) is covered when a world firing [t] this step denotes a
    marking of the same normal form, and otherwise yields a conditional
    candidate unless the normal form of its [t]-successor is [known] or
    is one of the state's own. *)
