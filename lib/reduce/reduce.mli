(** Structural reduction of safe Petri nets, with certified witness
    lifting.

    A rule-based pipeline applied in front of every engine: each rule
    rewrites the net into a smaller one with the same answer to the
    query at hand, and emits the inverse mapping needed to replay a
    witness found on the reduced net against the {e original} net — the
    same inverse-construction trick as
    {!Petri.Safety.project_monitor_witness}, composed across every
    rule application.  Because a reduction bug would silently corrupt
    every downstream verdict, the lift is designed so that
    [Harness.Certify] can check the final trace against the original
    net semantics alone.

    {2 Rule catalogue}

    Every rule preserves the existence of a reachable dead marking,
    and that is the only question the pipeline answers.  Cover
    (safety) questions arrive already monitored: {!Petri.Safety.monitor}
    turns "can these places be marked together" into a deadlock
    question on the monitored net (its [tick] self-loop keeps every
    non-violating marking live), so they need no rule set of their
    own.  A self-loop must therefore never be dropped as a no-op.

    All soundness arguments are made in the library's set semantics
    ({!Petri.Semantics.fire}), under the library-wide contract that the
    input net is safe (1-bounded); rules marked {e exact} induce a
    bijection between reachable markings (up to removed places) and
    need no safety assumption.

    - [Dead_transition] — [t] can never fire: either some input place
      has no producers and starts empty, or a non-negative P-semiflow
      [y] (Farkas, {!Petri.Invariant.p_semiflows}) bounds the weighted
      token count by [y·m0 < y·pre(t)].  Exact.
    - [Unread_place] — no transition reads [p] ([consumers(p) = ∅]):
      its marking influences nothing.  Exact.
    - [Constant_place] — [p] starts marked and every consumer returns
      it ([p ∈ •t ⇒ p ∈ t•]): in set semantics [p] stays marked
      forever, so it can be erased from every pre/postset.  Exact.
    - [Duplicate_place] — [p] and [q] have identical arc relations and
      initial marking: always equally marked; one is dropped.  Exact.
    - [Duplicate_transition] — [•t = •u] and [t• = u•]: [u] is
      dropped (any firing of [u] is a firing of [t]).  Exact.
    - [Agglomeration] — serial place/transition chain fusion
      (post-agglomeration): for a place [p] with [m0(p) = 0], a single
      consumer [b] with [•b = {p}], and producers [H ∌ b], each
      [a ∈ H] fuses with [b] into [a+b] ([•(a+b) = •a],
      [(a+b)• = (a•∖{p}) ∪ b•]) and [p], [b], [H] disappear.  On safe
      nets this preserves deadlock; the witness lift expands
      [a+b ↦ a; b] and is exact in any net, so a lifted witness always
      replays on the original.

    Rules run to fixpoint (each application strictly shrinks
    [|P| + |T|]); per-rule application counts are reported as
    [reduce.rule.*] counters and the overall shrink factor as the
    [reduce.ratio] gauge in {!Gpo_obs}.

    {2 Fault injection}

    Every rule pass crosses the [Guard.Fault] probe site
    ["reduce.rule"].  An injected allocation failure (or a genuine
    [Out_of_memory]) degrades the whole pipeline to the {e identity}
    reduction — the caller gets the unreduced net back, never a
    half-applied mapping; injected cancellation raises
    [Guard.Interrupted Cancelled]. *)

type rule =
  | Dead_transition
  | Unread_place
  | Constant_place
  | Duplicate_place
  | Duplicate_transition
  | Agglomeration

val all_rules : rule list
(** Every rule, in pipeline order. *)

val rule_name : rule -> string
(** Counter-friendly name ("dead_transition", "agglomeration", …). *)

type t = {
  original : Petri.Net.t;
  net : Petri.Net.t;  (** The reduced net (= [original] when nothing fired). *)
  rounds : int;  (** Fixpoint rounds until quiescence. *)
  applied : (rule * int) list;  (** Nonzero application counts, pipeline order. *)
  expansions : int array array;
      (** Witness lifting: reduced transition [t] expands to the
          original firing sequence [expansions.(t)]. *)
  degraded : bool;
      (** [true] when a fault degraded the pipeline to the identity
          reduction. *)
}

val run : ?rules:rule list -> Petri.Net.t -> t
(** Reduce [net] to fixpoint (at most 64 rounds) with [rules]
    (default {!all_rules}; a subset serves the per-rule differential
    tests).  The pipeline is defensive: it never erases the last place or
    transition (engines expect non-degenerate nets), and a (possibly
    injected) [Out_of_memory] degrades to the identity reduction. *)

val identity : Petri.Net.t -> t
(** The no-op reduction of [net] (what a degraded run returns). *)

val is_identity : t -> bool
(** [true] iff no rule fired ([net == original]). *)

val lift : t -> Petri.Trace.t -> Petri.Trace.t
(** Map a firing sequence of the reduced net to one of the original
    net by expanding every fused transition; the result replays on
    [original] and reaches a dead marking whenever the reduced trace
    did. *)

val ratio : t -> float
(** [(|P| + |T|) / (|P'| + |T'|)] — 1.0 when nothing fired. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line rendering: sizes before/after, ratio, rule counts. *)
