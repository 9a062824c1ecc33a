(* Racing engine portfolio: run several engines on the same net in
   separate domains, return the first conclusive verdict, cancel the
   rest.

   "Conclusive" means the verdict cannot change with more budget: a
   deadlock was found (sound for every engine we race), or the engine
   completed its whole state space.  A partial deadlock-free outcome is
   a non-answer, so a racer that runs out of budget keeps losing to
   slower engines that finish.

   Cancellation is a guard trip: every entrant polls a guard of its
   own, created below one race guard, and the first entrant to post a
   conclusive outcome trips the race guard [Cancelled].  Losers stop at
   their next poll with a partial outcome stopped [Cancelled]; the
   race runs on a [Par.Pool], which returns only when every entrant
   has, so no engine outlives the race.  The race guard sits below the
   caller's guard, so cancelling the caller cancels the whole race.

   Resource governance: [deadline_s]/[mem_mb] arm each entrant's own
   guard.  An entrant stopped by its guard reports the typed reason
   instead of hanging the race, and an all-stopped race reports why
   each entrant stopped.

   Telemetry: aggregate counters and gauges accumulate globally from
   every domain (they are atomic), so engine counters reflect all the
   work done by the race, winners and losers alike.  The event stream
   would interleave incoherently, so each entrant runs under
   [Gpo_obs.Scoped.capture] and only the winner's events are replayed
   into the sink, followed by a [portfolio] meta record naming the
   winner and the fate of each loser. *)

let c_races = Gpo_obs.Counter.make "portfolio.races"
let c_entrants = Gpo_obs.Counter.make "portfolio.entrants"
let c_cancelled = Gpo_obs.Counter.make "portfolio.cancelled_losers"

type entry =
  | Done of Engine.outcome * Gpo_obs.event list
  | Failed of exn * Printexc.raw_backtrace

type report = {
  outcome : Engine.outcome;
  raced : Engine.kind list;
  conclusive : bool;
  cancelled_losers : int;
  stops : (Engine.kind * Guard.stop_reason) list;
}

let conclusive (o : Engine.outcome) = o.deadlock || o.stop = Guard.Completed

let stop_of = function
  | Done (o, _) -> o.Engine.stop
  | Failed (e, _) -> Guard.Crashed (Printexc.to_string e)

let fate = function
  | Done (o, _) when conclusive o -> "conclusive"
  | entry -> Guard.string_of_stop (stop_of entry)

let run ?guard ?max_states ?witness ?(reduce = false) ?jobs ?deadline_s
    ?mem_mb ?(engines = [ Engine.Stubborn; Engine.Symbolic; Engine.Gpo ]) net =
  if engines = [] then invalid_arg "Portfolio.run: empty engine list";
  (* Reduce once, up front, on the coordinator domain: every entrant
     races the same reduced net (reducing per entrant would triple-count
     the reduce.rule.* counters and redo identical work), the reduction
     spans land in the main event stream rather than a loser's discarded
     capture, and the winner's witness is lifted back below. *)
  let reduction = if reduce then Some (Reduce.run net) else None in
  let net = match reduction with Some r -> r.Reduce.net | None -> net in
  Gpo_obs.Counter.incr c_races;
  Gpo_obs.Counter.add c_entrants (List.length engines);
  Gpo_obs.Counter.touch c_cancelled;
  let race = Guard.create ?parent:guard () in
  let winner : (Engine.kind * entry) option Atomic.t = Atomic.make None in
  let run_entrant (kind, guard) =
    let entry =
      match
        Gpo_obs.Scoped.capture (fun () ->
            Engine.run ?max_states ?witness ?jobs ~guard kind net)
      with
      | o, events -> Done (o, events)
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    (match entry with
    | Done (o, _) when conclusive o ->
        if Atomic.compare_and_set winner None (Some (kind, entry)) then
          Guard.trip race Guard.Cancelled
    | _ -> ());
    (kind, entry)
  in
  let entrants =
    List.map
      (fun kind -> (kind, Guard.create ~parent:race ?deadline_s ?mem_mb ()))
      engines
  in
  let entries =
    Par.Pool.with_pool ~jobs:(List.length engines) (fun pool ->
        Par.Pool.map pool run_entrant entrants)
  in
  let cancelled_losers =
    List.length
      (List.filter (fun (_, e) -> stop_of e = Guard.Cancelled) entries)
  in
  Gpo_obs.Counter.add c_cancelled cancelled_losers;
  let stops = List.map (fun (kind, entry) -> (kind, stop_of entry)) entries in
  (* The CAS winner is the first conclusive arrival.  With none (every
     entrant stopped short or failed), fall back to the outcome that
     got furthest, and failing that re-raise the first error. *)
  let chosen =
    match Atomic.get winner with
    | Some (kind, Done (o, events)) -> Some (kind, o, events)
    | Some _ -> assert false
    | None ->
        List.filter_map
          (function
            | kind, Done (o, events) -> Some (kind, o, events) | _ -> None)
          entries
        |> List.sort (fun (_, (a : Engine.outcome), _) (_, b, _) ->
               compare b.Engine.states a.Engine.states)
        |> function
        | best :: _ -> Some best
        | [] -> None
  in
  match chosen with
  | None -> (
      (* No outcome at all: every entrant failed. *)
      match entries with
      | (_, Failed (e, bt)) :: _ -> Printexc.raise_with_backtrace e bt
      | _ -> assert false)
  | Some (winner_kind, outcome, events) ->
      let outcome =
        match reduction with
        | None -> outcome
        | Some red ->
            {
              outcome with
              Engine.witness =
                Option.map (Reduce.lift red) outcome.Engine.witness;
            }
      in
      Gpo_obs.Scoped.replay events;
      Gpo_obs.meta "portfolio"
        (("winner", Gpo_obs.S (Engine.name winner_kind))
        :: ("conclusive", Gpo_obs.B (conclusive outcome))
        :: List.map
             (fun (kind, entry) ->
               (Engine.name kind, Gpo_obs.S (fate entry)))
             entries);
      {
        outcome;
        raced = engines;
        conclusive = conclusive outcome;
        cancelled_losers;
        stops;
      }
