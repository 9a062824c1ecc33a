(* Independent certification of engine verdicts.

   An engine's "deadlock found / property violated" answer is only
   trustworthy if it can be checked without trusting the engine: the
   witness firing sequence is replayed step by step with [Petri.Trace]
   (which validates enabledness of every firing against the net
   semantics alone) and the final marking is checked to be dead — or,
   for safety verdicts, to cover the property's bad places on the
   original net after inverting the monitor construction. *)

type rejection =
  | No_witness
  | Replay_failed of string
  | Not_dead of Petri.Bitset.t
  | Not_covering of Petri.Bitset.t

type verdict =
  | Certified of { trace : Petri.Trace.t; final : Petri.Bitset.t }
  | Rejected of rejection
  | Inconclusive
  | Clean

let c_accepted = Gpo_obs.Counter.make "certify.accepted"
let c_rejected = Gpo_obs.Counter.make "certify.rejected"

let replay_check net trace ~accept ~reject =
  match Petri.Trace.final_marking net trace with
  | final ->
      if accept final then begin
        Gpo_obs.Counter.incr c_accepted;
        Certified { trace; final }
      end
      else begin
        Gpo_obs.Counter.incr c_rejected;
        Rejected (reject final)
      end
  | exception Invalid_argument msg ->
      Gpo_obs.Counter.incr c_rejected;
      Rejected (Replay_failed msg)

let of_outcome ~certify (outcome : Engine.outcome) =
  if not outcome.Engine.deadlock then
    if Engine.truncated outcome then Inconclusive else Clean
  else
    match outcome.Engine.witness with
    | None when Engine.truncated outcome ->
        (* The engine saw a violation but was stopped (deadline, memory,
           cancellation) before a witness could be reconstructed: there
           is nothing to certify and nothing to reject — the run is
           inconclusive, not untrustworthy. *)
        Inconclusive
    | None ->
        Gpo_obs.Counter.incr c_rejected;
        Rejected No_witness
    | Some trace -> Gpo_obs.Span.time "certify.replay" (fun () -> certify trace)

let deadlock net outcome =
  of_outcome outcome ~certify:(fun trace ->
      replay_check net trace
        ~accept:(fun final -> Petri.Semantics.is_deadlock net final)
        ~reject:(fun final -> Not_dead final))

let safety net property outcome =
  of_outcome outcome ~certify:(fun trace ->
      let projected = Petri.Safety.project_monitor_witness net trace in
      replay_check net projected
        ~accept:(Petri.Safety.covers property)
        ~reject:(fun final -> Not_covering final))

let certified = function Certified _ -> true | _ -> false

let pp net ppf = function
  | Certified { trace; final } ->
      Format.fprintf ppf
        "@[<v>CERTIFIED: %d-step witness replays to %a@ witness: %a@]"
        (List.length trace) (Petri.Net.pp_marking net) final
        (Petri.Trace.pp net) trace
  | Rejected No_witness ->
      Format.fprintf ppf "REJECTED: violation claimed without a witness"
  | Rejected (Replay_failed msg) ->
      Format.fprintf ppf "REJECTED: witness does not replay (%s)" msg
  | Rejected (Not_dead final) ->
      Format.fprintf ppf "REJECTED: witness ends in the live marking %a"
        (Petri.Net.pp_marking net) final
  | Rejected (Not_covering final) ->
      Format.fprintf ppf "REJECTED: witness ends in %a, which misses the cover"
        (Petri.Net.pp_marking net) final
  | Inconclusive ->
      Format.fprintf ppf "inconclusive: state budget exhausted before a verdict"
  | Clean -> Format.fprintf ppf "clean: no violation reported"
