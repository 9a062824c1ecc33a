type kind = Full | Stubborn | Symbolic | Gpo

type outcome = {
  kind : kind;
  states : float;
  metric : float;
  deadlock : bool;
  time_s : float;
  stop : Guard.stop_reason;
  witness : Petri.Trace.t option;
}

let truncated o = o.stop <> Guard.Completed
let all = [ Full; Stubborn; Symbolic; Gpo ]

let name = function
  | Full -> "full"
  | Stubborn -> "spin+po"
  | Symbolic -> "smv"
  | Gpo -> "gpo"

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Witness reconstruction for the explicit engines: walk the predecessor
   map back from the first retained deadlocked marking. *)
let explicit_witness ?cancel (r : Petri.Reachability.result) =
  match r.deadlocks with
  | [] -> None
  | m :: _ ->
      Some
        (Gpo_obs.Span.time "reach.witness" (fun () ->
             Petri.Reachability.trace_to ?cancel r m))

let run ?(max_states = 5_000_000) ?(witness = false) ?(gpo_scan = true)
    ?(reduce = false) ?cancel ?guard ?(jobs = 1) kind net =
  Gpo_obs.Span.time ("engine." ^ name kind) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let attempt () =
    (* The structural reduction runs inside the recovery envelope below:
       an allocation failure while reducing degrades to the identity
       reduction inside [Reduce.run] itself, and a guard trip during
       reduction degrades the whole run like any engine-loop trip. *)
    let reduction =
      if reduce then Some (Reduce.run ~query:Reduce.Deadlock net) else None
    in
    let net = match reduction with Some r -> r.Reduce.net | None -> net in
    let outcome = match kind with
    | Full | Stubborn ->
        let explore =
          if kind = Full then Petri.Reachability.explore ?strategy:None
          else Petri.Stubborn.explore ?heuristic:None
        in
        let r, time_s =
          timed (fun () ->
              explore ~max_states ~traces:witness ?cancel ?guard net)
        in
        {
          kind;
          states = float_of_int r.states;
          metric = float_of_int r.states;
          deadlock = r.deadlock_count > 0;
          time_s;
          stop = r.stop;
          witness = (if witness then explicit_witness ?cancel r else None);
        }
    | Symbolic ->
        let r, time_s =
          timed (fun () -> Bddkit.Symbolic.analyse ~witness ?cancel ?guard net)
        in
        {
          kind;
          states = r.states;
          metric = float_of_int r.peak_live_nodes;
          deadlock = r.deadlock <> None;
          time_s;
          stop = r.stop;
          witness = r.witness;
        }
    | Gpo ->
        (* Default: the complete configuration with the deviation scan.
           [~gpo_scan:false] is the paper's procedure (Section 3.3 as
           published): sound on the deadlocks it finds, but it can miss
           some. *)
        let r, time_s =
          timed (fun () ->
              Gpn.Explorer.analyse ~scan:gpo_scan ~max_states ~jobs ?cancel
                ?guard net)
        in
        let trace =
          match r.Gpn.Explorer.deadlocks with
          | w :: _ when witness -> Some (Gpn.Explorer.deadlock_trace ?cancel r w)
          | _ -> None
        in
        {
          kind;
          states = float_of_int r.states;
          metric = float_of_int r.states;
          deadlock = not (Gpn.Explorer.deadlock_free r);
          time_s;
          stop = r.stop;
          witness = trace;
        }
    in
    match reduction with
    | None -> outcome
    | Some red ->
        (* Witnesses were found on the reduced net; expand every fused
           transition so the trace replays against the original. *)
        { outcome with witness = Option.map (Reduce.lift red) outcome.witness }
  in
  let degraded stop =
    {
      kind;
      states = 0.;
      metric = 0.;
      deadlock = false;
      time_s = Unix.gettimeofday () -. t0;
      stop;
      witness = None;
    }
  in
  match attempt () with
  | o -> o
  | exception Out_of_memory ->
      (* Last-ditch recovery: the allocator failed before (or without)
         a soft budget tripping.  Drop the recoverable caches so the
         degraded outcome can be built, and report the run as stopped
         by memory — never as a verdict.  Cancellation, by contrast,
         keeps unwinding: the portfolio owns that contract. *)
      Guard.relieve_memory ();
      degraded Guard.Memory
  | exception Guard.Interrupted reason ->
      (* A guard trip that escaped an engine loop (e.g. during witness
         reconstruction): same degradation, with the recorded reason. *)
      degraded reason

let pp_outcome ppf o =
  Format.fprintf ppf "%-8s %12.0f %s %8.3fs%s" (name o.kind) o.metric
    (if o.deadlock then "deadlock " else "dl-free  ")
    o.time_s
    (if truncated o then
       Printf.sprintf " (stopped: %s)" (Guard.describe_stop o.stop)
     else "")
