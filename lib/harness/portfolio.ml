(* Racing engine portfolio: run several engines on the same net in
   separate domains, return the first conclusive verdict, cancel the
   rest.

   "Conclusive" means the verdict cannot change with more budget: a
   deadlock was found (sound for every engine we race), or the engine
   completed its whole state space.  A partial deadlock-free outcome is
   a non-answer, so a racer that runs out of budget keeps losing to
   slower engines that finish.

   Cancellation is cooperative: all entrants share one {!Par.Cancel}
   token, checked in every engine's step loop, and the first entrant to
   post a conclusive outcome sets it.  Losers unwind with
   [Par.Cancel.Cancelled] inside their own domain; the coordinator
   joins every domain before reporting, so no engine outlives the race.

   Resource governance: [deadline_s]/[mem_mb] arm a per-entrant
   {!Guard.t}, created {e inside} each racing domain (Gc alarms are
   per-domain).  An entrant stopped by its guard reports the typed
   reason instead of hanging the race, and an all-stopped race reports
   why each entrant stopped.

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
  | Cancelled
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
  | Cancelled -> Guard.Cancelled
  | Failed (e, _) -> Guard.Crashed (Printexc.to_string e)

let fate entry =
  match entry with
  | Done (o, _) when conclusive o -> "conclusive"
  | Done _ | Cancelled | Failed _ -> Guard.string_of_stop (stop_of entry)

let run ?max_states ?witness ?(reduce = false) ?jobs ?deadline_s
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
  let token = Par.Cancel.create () in
  let winner : (Engine.kind * entry) option Atomic.t = Atomic.make None in
  let race kind () =
    let entry =
      match
        Gpo_obs.Scoped.capture (fun () ->
            Guard.with_guard ?deadline_s ?mem_mb (fun guard ->
                Engine.run ?max_states ?witness ?jobs ~cancel:token
                  ~guard kind net))
      with
      | o, events -> Done (o, events)
      | exception Par.Cancel.Cancelled -> Cancelled
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    (match entry with
    | Done (o, _) when conclusive o ->
        if Atomic.compare_and_set winner None (Some (kind, entry)) then
          Par.Cancel.cancel token
    | _ -> ());
    (kind, entry)
  in
  let entries =
    match engines with
    | [ only ] -> [ race only () ]
    | _ ->
        (* One domain per engine; the coordinator joins them all, so
           every loser has fully unwound before we read the results. *)
        let domains = List.map (fun k -> Domain.spawn (race k)) engines in
        List.map Domain.join domains
  in
  let cancelled_losers =
    List.length (List.filter (fun (_, e) -> e = Cancelled) entries)
  in
  Gpo_obs.Counter.add c_cancelled cancelled_losers;
  let stops = List.map (fun (kind, entry) -> (kind, stop_of entry)) entries in
  (* The CAS winner is the first conclusive arrival.  With none (every
     entrant stopped short or failed), fall back to the completed
     outcome that got furthest, and failing that re-raise the first
     error. *)
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
      match
        List.find_map
          (function _, Failed (e, bt) -> Some (e, bt) | _ -> None)
          entries
      with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          (* Only reachable if an external token cancelled the whole
             race before any entrant concluded. *)
          raise Par.Cancel.Cancelled)
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
