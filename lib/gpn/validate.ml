module Bitset = Petri.Bitset
module Table = Petri.Reachability.Marking_table

type report = {
  verdict_agrees : bool;
  witnesses_sound : bool;
  witnesses_complete : bool;
  denotations_reachable : bool;
  traces_valid : bool;
  classical_states : int;
  gpo_states : int;
  classical_deadlocks : int;
  detail : string option;
}

exception Incomplete of Guard.stop_reason

let validate ?(max_states = 200_000) (net : Petri.Net.t) =
  match
    let classical =
      Petri.Reachability.explore ~max_states ~max_deadlocks:max_int net
    in
    if Petri.Reachability.truncated classical then
      raise (Incomplete classical.stop);
    let gpo = Explorer.analyse ~max_states net in
    if Explorer.truncated gpo then raise (Incomplete gpo.stop);
    (classical, gpo)
  with
  | exception Incomplete reason -> Error reason
  | classical, gpo ->
  let detail = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !detail = None then detail := Some s) fmt in
  let classical_dead = classical.deadlocks in
  let classical_has_deadlock = classical.deadlock_count > 0 in
  let gpo_has_deadlock = not (Explorer.deadlock_free gpo) in
  let verdict_agrees = Bool.equal classical_has_deadlock gpo_has_deadlock in
  if not verdict_agrees then
    note "verdict mismatch: classical=%b gpo=%b" classical_has_deadlock gpo_has_deadlock;
  let witness_markings =
    List.concat_map (fun w -> w.Explorer.markings) gpo.deadlocks
  in
  let witnesses_sound =
    List.for_all
      (fun m ->
        let sound =
          Table.mem classical.visited m && Petri.Semantics.is_deadlock net m
        in
        if not sound then
          note "unsound witness marking %a"
            (fun () m -> Format.asprintf "%a" (Petri.Net.pp_marking net) m)
            m;
        sound)
      witness_markings
  in
  let witnesses_complete =
    List.for_all
      (fun m ->
        let found = List.exists (Bitset.equal m) witness_markings in
        if not found then
          note "classical deadlock %s not witnessed by GPO"
            (Format.asprintf "%a" (Petri.Net.pp_marking net) m);
        found)
      classical_dead
  in
  let denotations_reachable =
    let ok = ref true in
    List.iter
      (fun run ->
        State.Table.iter
          (fun s () ->
            List.iter
              (fun m ->
                if not (Table.mem classical.visited m) then begin
                  ok := false;
                  note "denoted marking %s not classically reachable"
                    (Format.asprintf "%a" (Petri.Net.pp_marking net) m)
                end)
              (State.mapping s))
          run.Explorer.visited)
      gpo.runs;
    !ok
  in
  let traces_valid =
    List.for_all
      (fun w ->
        let trace = Explorer.deadlock_trace gpo w in
        match Petri.Trace.replay net trace with
        | markings -> begin
            match List.rev markings with
            | final :: _ ->
                let dead = Petri.Semantics.is_deadlock net final in
                if not dead then note "witness trace ends in a live marking";
                dead
            | [] -> false
          end
        | exception Invalid_argument msg ->
            note "witness trace does not replay: %s" msg;
            false)
      gpo.deadlocks
  in
  Ok
    {
      verdict_agrees;
      witnesses_sound;
      witnesses_complete;
      denotations_reachable;
      traces_valid;
      classical_states = classical.states;
      gpo_states = gpo.states;
      classical_deadlocks = classical.deadlock_count;
      detail = !detail;
    }

let ok r =
  r.verdict_agrees && r.witnesses_sound && r.witnesses_complete
  && r.denotations_reachable && r.traces_valid
