(** Racing engine portfolio.

    Runs several engines on the same net concurrently, one domain per
    engine on a {!Par.Pool} (the caller runs one entrant itself), and
    returns the first {e conclusive} verdict: a found deadlock, or a
    completed (non-truncated) deadlock-free analysis.  A truncated
    deadlock-free outcome is inconclusive and keeps racing's losers
    alive.  Each entrant polls a guard of its own below one race guard;
    the winner trips the race guard [Cancelled], which stops every
    other entrant at its next poll.

    The winning outcome is exactly what {!Engine.run} would have
    produced — including the certified witness when [witness] was
    requested — so all downstream tooling (certification, exit codes)
    is unchanged.  Counters and gauges aggregate the work of all
    entrants; the event stream carries only the winner's events plus a
    [portfolio] meta record naming the winner and each loser's fate. *)

type report = {
  outcome : Engine.outcome;  (** The winning engine's outcome. *)
  raced : Engine.kind list;  (** The entrants, in the order given. *)
  conclusive : bool;
      (** [false] only when every entrant truncated: [outcome] is then
          the furthest-progressed truncated result (still exit 2). *)
  cancelled_losers : int;
      (** Entrants whose run stopped [Cancelled] — the losers the
          winner's trip stopped early, which the tests assert. *)
  stops : (Engine.kind * Guard.stop_reason) list;
      (** Why each entrant stopped, in [raced] order: [Completed] for a
          finished analysis, [State_budget]/[Deadline]/[Memory] for a
          budget, [Cancelled] for a race loser, [Crashed _] for an
          entrant that died.  An all-failed race is explained here. *)
}

val run :
  ?guard:Guard.t ->
  ?max_states:int ->
  ?witness:bool ->
  ?reduce:bool ->
  ?jobs:int ->
  ?deadline_s:float ->
  ?mem_mb:int ->
  ?engines:Engine.kind list ->
  Petri.Net.t ->
  report
(** Race [engines] (default [Stubborn; Symbolic; Gpo] — the three
    reduced engines; add [Full] explicitly if wanted) on [net].  The
    race guard sits below [guard]: tripping [guard] [Cancelled] stops
    every entrant, and the race then reports the furthest cancelled
    outcome.  [deadline_s] and [mem_mb] arm each entrant's own guard.
    [max_states] and [witness] are forwarded to every {!Engine.run}
    (GPO races in its complete configuration); [jobs] sets the GPO
    entrant's wave workers inside its own race lane.  [reduce] applies
    the structural reduction pipeline
    ({!Reduce.run}) {e once}, before the race, so every entrant
    explores the same reduced net and the reduction counters count a
    single pipeline run; the winner's witness is lifted back to the
    original net.  With a
    single entrant the race degenerates to an inline {!Engine.run}.
    Raises the first entrant error if no entrant produced any outcome.

    Telemetry: [portfolio.races], [portfolio.entrants],
    [portfolio.cancelled_losers]. *)
