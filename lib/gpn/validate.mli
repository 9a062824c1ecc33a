(** Cross-validation of GPO analysis against conventional analysis.

    The paper argues (Section 3.3) that the generalized partial-order
    algorithm computes enough of the reachable states of the GPN to
    decide the behaviour of the safe classical net with the same
    structure.  This module checks exactly that, exhaustively, on a
    given net:

    - the deadlock verdicts of both engines agree;
    - every deadlock witness marking reported by GPO is a real
      deadlocked classical marking (soundness);
    - every classical deadlocked marking is reported by some GPO
      witness (completeness);
    - every classical marking denoted by any visited GPN state is
      classically reachable (the [mapping] consistency of
      Definitions 3.3/3.6);
    - every extracted witness trace replays on the classical net and
      ends in a dead marking.

    It is meant for small nets (both engines run exhaustively) and is
    the backbone of the property-based test suite. *)

type report = {
  verdict_agrees : bool;
  witnesses_sound : bool;
  witnesses_complete : bool;
  denotations_reachable : bool;
  traces_valid : bool;
  classical_states : int;
  gpo_states : int;
  classical_deadlocks : int;
  detail : string option;  (** Description of the first discrepancy, if any. *)
}

val validate :
  ?max_states:int -> Petri.Net.t -> (report, Guard.stop_reason) result
(** Run both engines exhaustively ([max_states] defaults to [200_000])
    and compare.  [Error reason] if either exploration stopped before
    covering its state space (typically [State_budget] — use small
    nets); the comparison would be meaningless on partial spaces. *)

val ok : report -> bool
(** All five checks passed. *)
