type source = File of string | Inline of string | Model of { id : string; size : int }

let model id size =
  match String.lowercase_ascii id with
  | "fig1" -> Models.Figures.fig1
  | "fig2" -> Models.Figures.fig2 size
  | "fig3" -> Models.Figures.fig3
  | "fig5" -> Models.Figures.fig5
  | "fig7" -> Models.Figures.fig7
  | "scheduler" -> Models.Scheduler.make size
  | "random" -> Models.Random_net.generate size
  | id -> (
      match Experiment.family id with
      | fam -> fam.make size
      | exception Not_found ->
          failwith
            (Printf.sprintf
               "unknown model %S (expected nsdp, asat, over, rw, scheduler, \
                random, or a figure)"
               id))

let load source =
  let parsed what = function
    | Ok net -> Ok net
    | Error { Petri.Parser.line = 0; message; _ } -> Error message
    | Error e -> Error (Format.asprintf "%s: %a" what Petri.Parser.pp_error e)
  in
  match source with
  | File path -> parsed path (Petri.Parser.parse_file path)
  | Inline text -> parsed "net" (Petri.Parser.parse ~name:"net" text)
  | Model { id; size } -> (
      (* Model constructors reject sizes they cannot build with
         [Invalid_argument]. *)
      match model id size with
      | net -> Ok net
      | exception (Failure msg | Invalid_argument msg) -> Error msg)

type selection = Single of Engine.kind | Portfolio

let selection_of_string = function
  | "full" -> Ok (Single Engine.Full)
  | "po" | "spin+po" | "stubborn" -> Ok (Single Engine.Stubborn)
  | "smv" | "bdd" | "symbolic" -> Ok (Single Engine.Symbolic)
  | "gpo" -> Ok (Single Engine.Gpo)
  | "portfolio" -> Ok Portfolio
  | s -> Error (Printf.sprintf "unknown engine %S" s)

let selection_name = function
  | Single k -> Engine.name k
  | Portfolio -> "portfolio"

type budgets = {
  max_states : int;
  jobs : int;
  timeout_s : float option;
  mem_mb : int option;
}

type t = {
  net : Petri.Net.t;
  target : Petri.Net.t;
  property : Petri.Safety.property option;
}

let prepare ?(cover = []) source =
  Result.bind (load source) @@ fun net ->
  let known p = Array.mem p net.Petri.Net.place_names in
  match (List.find_opt (fun p -> not (known p)) cover, cover) with
  | Some p, _ -> Error (Printf.sprintf "unknown place %S" p)
  | None, [] -> Ok { net; target = net; property = None }
  | None, _ ->
      let never_all = List.map (Petri.Net.place_index net) cover in
      let property = { Petri.Safety.name = "prop"; never_all } in
      Ok
        {
          net;
          target = Petri.Safety.monitor net property;
          property = Some property;
        }

let key ~witness ~reduce budgets sel q =
  let cover (p : Petri.Safety.property) =
    "cover:"
    ^ String.concat "," (List.map (Petri.Net.place_name q.net) p.never_all)
  in
  Result_cache.key ?property:(Option.map cover q.property)
    ~digest:(Petri.Net.digest q.target) ~engine:(selection_name sel)
    ~max_states:budgets.max_states ~witness ~gpo_scan:true ~reduce ()

let run ?cancel ?(on_race = ignore) ~witness ~reduce budgets sel q =
  let { max_states; jobs; timeout_s = deadline_s; mem_mb } = budgets in
  let jobs = Par.Pool.resolve_jobs jobs in
  match sel with
  | Single kind -> (
      let body guard =
        Engine.run ~max_states ~witness ~reduce ~jobs ?cancel ?guard kind
          q.target
      in
      match (deadline_s, mem_mb) with
      | None, None -> body None
      | _ -> Guard.with_guard ?deadline_s ?mem_mb (fun g -> body (Some g)))
  | Portfolio ->
      (* The portfolio owns its cancel tokens (to stop the race losers)
         and arms one guard per entrant, inside each racing domain (Gc
         alarms are per domain); [cancel] does not reach it. *)
      let r =
        Portfolio.run ~max_states ~witness ~reduce ~jobs ?deadline_s ?mem_mb
          q.target
      in
      on_race r;
      r.Portfolio.outcome

let certify q o =
  match q.property with
  | None -> Certify.deadlock q.net o
  | Some p -> Certify.safety q.net p o

type verdict =
  | Holds
  | Violated
  | Inconclusive of Guard.stop_reason
  | Untrusted
  | Failed of string

let verdict (o : Engine.outcome) ~certified =
  match certified with
  | Some true -> Violated
  | Some false -> Untrusted
  | None when Engine.truncated o -> Inconclusive o.stop
  | None -> if o.deadlock then Violated else Holds

let classify q o =
  let c = certify q o in
  let certified =
    match c with
    | Certify.Certified _ -> Some true
    | Certify.Rejected _ -> Some false
    | Certify.Inconclusive | Certify.Clean -> None
  in
  (c, verdict o ~certified)

let exit_code verdicts =
  let any p = List.exists p verdicts in
  if any (( = ) Untrusted) then 2
  else if any (( = ) Violated) then 1
  else if any (function Inconclusive _ | Failed _ -> true | _ -> false) then 2
  else 0

let verdict_name = function
  | Holds -> "holds"
  | Violated -> "VIOLATED"
  | Inconclusive stop -> "inconclusive (" ^ Guard.describe_stop stop ^ ")"
  | Untrusted -> "UNTRUSTED"
  | Failed msg -> "failed: " ^ msg
