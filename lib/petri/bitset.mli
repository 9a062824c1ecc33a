(** Immutable fixed-width bit sets, and mutable buffers to build them.

    A value of type {!t} represents a subset of [{0, ..., width - 1}].
    All operations are purely functional; the underlying words are never
    mutated after construction.  A {!Buf.t} is the mutable form, for
    loops that would otherwise allocate a set per step.  Bit sets are the canonical representation
    for safe Petri-net markings (sets of marked places) and for transition
    sets (the "colors" of Generalized Petri Nets). *)

type t

val width : t -> int
(** [width s] is the universe size the set was created with. *)

val empty : int -> t
(** [empty width] is the empty subset of [{0, ..., width - 1}]. *)

val full : int -> t
(** [full width] is the complete subset [{0, ..., width - 1}]. *)

val singleton : int -> int -> t
(** [singleton width i] is [{i}].  Raises [Invalid_argument] if [i] is
    outside [\[0, width)]. *)

val of_list : int -> int list -> t
(** [of_list width elements] builds the set containing [elements]. *)

val of_array : int -> int array -> t
(** Like {!of_list} for arrays. *)

val mem : int -> t -> bool
(** [mem i s] tests membership of [i] in [s]. *)

val add : int -> t -> t
(** [add i s] is [s ∪ {i}]. *)

val remove : int -> t -> t
(** [remove i s] is [s \ {i}]. *)

val union : t -> t -> t
(** Set union.  Both arguments must have the same width. *)

val inter : t -> t -> t
(** Set intersection.  Both arguments must have the same width. *)

val diff : t -> t -> t
(** [diff a b] is [a \ b].  Both arguments must have the same width. *)

val is_empty : t -> bool
(** [is_empty s] is [true] iff [s] has no element. *)

val equal : t -> t -> bool
(** Structural equality of sets (same width and same elements). *)

val compare : t -> t -> int
(** A total order compatible with {!equal}, suitable for [Map]/[Set]:
    by width, then by the words of the sets, lowest first, each compared
    as a signed int (the order of [Stdlib.compare] on the words).  So
    within a word the highest bit decides, except that the word's sign
    bit, bit [Sys.int_size - 1], makes a word smaller; world sets order
    their variables by it (see [Gpn.World_set.choose]). *)

val hash : t -> int
(** A hash compatible with {!equal}.  O(1): every set stores its digest,
    computed once at construction. *)

val subset : t -> t -> bool
(** [subset a b] is [true] iff every element of [a] belongs to [b]. *)

val disjoint : t -> t -> bool
(** [disjoint a b] is [true] iff [a ∩ b = ∅]. *)

val intersects : t -> t -> bool
(** [intersects a b] is [not (disjoint a b)]. *)

val cardinal : t -> int
(** Number of elements. *)

val choose : t -> int
(** The smallest element.  Raises [Not_found] on the empty set. *)

val iter : (int -> unit) -> t -> unit
(** [iter f s] applies [f] to every element of [s] in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f s init] folds [f] over the elements in increasing order. *)

val for_all : (int -> bool) -> t -> bool
(** [for_all p s] tests whether every element satisfies [p]. *)

val exists : (int -> bool) -> t -> bool
(** [exists p s] tests whether some element satisfies [p]. *)

val elements : t -> int list
(** Elements in increasing order. *)

val pp : ?name:(int -> string) -> unit -> Format.formatter -> t -> unit
(** [pp ~name ()] pretty-prints a set as [{a, b, c}], rendering each
    element through [name] (default: decimal index). *)

val to_string : ?name:(int -> string) -> t -> string
(** String version of {!pp}. *)

(** Mutable bit sets of a fixed width, updated in place and frozen
    into a {!t} once: the deviation scan fires transitions on a marking
    buffer, and world sets build their worlds in one. *)
module Buf : sig
  type bitset := t
  type t

  val create : int -> t
  (** [create width] is an empty buffer. *)

  val load : t -> bitset -> unit
  (** [load b s] makes [b] hold exactly [s], of the same width. *)

  val add : t -> int -> unit
  val remove : t -> int -> unit

  val fire : t -> pre:bitset -> post:bitset -> unit
  (** [fire b ~pre ~post] makes [b] hold [(b \ pre) ∪ post]: a
      transition's firing on a safe marking. *)

  val contains : t -> bitset -> bool
  (** [contains b s] is [true] iff [s ⊆ b]: with a preset as [s], the
      transition is enabled. *)

  val freeze : t -> bitset
  (** The buffer's contents as an immutable set; the buffer stays
      usable. *)
end
