(** Independent certification of engine verdicts.

    Every violation verdict of {!Engine.run} ships a witness firing
    sequence; this module is the {e checker} side: it replays the
    witness against the net semantics alone ({!Petri.Trace} validates
    the enabledness of every step) and confirms the final marking has
    the claimed defect — dead for deadlock verdicts, covering the bad
    places for safety verdicts (after inverting the
    {!Petri.Safety.monitor} construction).  A [Certified] verdict
    therefore does not depend on the correctness of the engine that
    produced it. *)

type rejection =
  | No_witness  (** Violation claimed but no witness attached. *)
  | Replay_failed of string  (** Some step of the witness is not enabled. *)
  | Not_dead of Petri.Bitset.t
      (** The witness replays, but ends in this live marking. *)
  | Not_covering of Petri.Bitset.t
      (** The projected witness replays, but its final marking misses
          the property's cover. *)

type verdict =
  | Certified of { trace : Petri.Trace.t; final : Petri.Bitset.t }
      (** The witness replays and the final marking has the claimed
          defect.  For safety verdicts, [trace] and [final] are on the
          {e original} net. *)
  | Rejected of rejection  (** The claimed violation did not check out. *)
  | Inconclusive
      (** The run stopped early ([stop <> Completed]: state budget,
          deadline, memory, cancellation) without a certifiable
          violation — either no violation was claimed, or one was
          claimed but the stop preempted witness reconstruction.
          Nothing was proven either way. *)
  | Clean  (** No violation claimed by an exhaustive run. *)

val deadlock : Petri.Net.t -> Engine.outcome -> verdict
(** Certify a deadlock verdict: replay the witness on [net] and check
    the final marking enables nothing. *)

val safety : Petri.Net.t -> Petri.Safety.property -> Engine.outcome -> verdict
(** Certify a safety verdict.  [outcome] must come from a run on
    [Petri.Safety.monitor net property]; its witness is projected back
    to the original [net] with
    {!Petri.Safety.project_monitor_witness}, replayed there, and the
    final marking checked to cover [property.never_all]. *)

val certified : verdict -> bool
(** [true] exactly on [Certified _]. *)

val pp : Petri.Net.t -> Format.formatter -> verdict -> unit
(** One-block rendering (the [julie certify] output). *)
