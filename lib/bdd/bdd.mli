(** Reduced Ordered Binary Decision Diagrams, hash-consed.

    A from-scratch ROBDD package in the style of Bryant's original
    paper (reference [2] of the paper): shared, canonical node
    representation with a unique table and memoized boolean operations.
    It provides everything the symbolic reachability analysis of
    Section 2.4 needs — conjunction/disjunction/negation, if-then-else,
    existential quantification over variable sets, the fused
    relational product, monotone variable renaming and satisfying
    assignment counting — plus the node-count accounting used for the
    "Peak BDD size" column of Table 1.

    Nodes are ordered by increasing variable index from the root.
    All values belonging to one {!manager} are canonical: structural
    equality is physical equality. *)

type manager
(** Owns the unique table and the operation caches. *)

type t
(** A BDD node.  Only combine nodes created by the same manager. *)

val manager : unit -> manager
(** Create a fresh manager. *)

val zero : manager -> t
(** The constant false. *)

val one : manager -> t
(** The constant true. *)

val var : manager -> int -> t
(** [var m v] is the function of the single variable [v] (≥ 0). *)

val nvar : manager -> int -> t
(** [nvar m v] is [not_ m (var m v)]. *)

val not_ : manager -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor_ : manager -> t -> t -> t

val iff : manager -> t -> t -> t
(** [iff m a b] is [¬(a xor b)]. *)

val ite : manager -> t -> t -> t -> t
(** [ite m i t e] is if-then-else. *)

val conj : manager -> t list -> t
(** Conjunction of a list ([one] for the empty list). *)

val disj : manager -> t list -> t
(** Disjunction of a list ([zero] for the empty list). *)

val exists : manager -> int list -> t -> t
(** [exists m vars f] quantifies the listed variables existentially. *)

val and_exists : manager -> int list -> t -> t -> t
(** [and_exists m vars f g] computes [exists m vars (and_ m f g)]
    without building the conjunction first — the relational-product
    kernel of image computation. *)

val rename_monotone : manager -> (int -> int) -> t -> t
(** [rename_monotone m f t] substitutes variable [v] by [f v].  [f]
    must be strictly monotone on the support of [t] (it preserves the
    variable order), which makes the substitution a linear walk. *)

val restrict : manager -> int -> bool -> t -> t
(** [restrict m v b t] is the cofactor of [t] with [v = b]. *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
(** Constant-time (hash-consing makes structural equality physical). *)

val eval : t -> (int -> bool) -> bool
(** Evaluate under an assignment. *)

val sat_count : manager -> int -> t -> float
(** [sat_count m n_vars t] is the number of satisfying assignments of
    [t] over the variable universe [{0, ..., n_vars - 1}] (as a float:
    counts overflow 63 bits beyond ~63 variables). *)

val any_sat : t -> (int * bool) list
(** One satisfying assignment as (variable, value) pairs for the
    variables on the path; raises [Not_found] on [zero]. *)

val size : t -> int
(** Number of distinct nodes reachable from this node (incl. leaves). *)

val live_nodes : manager -> int
(** Total nodes currently in the unique table. *)

val peak_nodes : manager -> int
(** High-water mark of {!live_nodes} since the manager was created. *)

val unique_load_factor : manager -> float
(** Bindings per bucket of the unique table — reported by the symbolic
    engine's telemetry ([bdd.unique.load_factor]). *)

val clear_caches : manager -> unit
(** Drop the operation caches (the unique table is kept). *)
