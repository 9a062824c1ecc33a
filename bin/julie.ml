(* julie — generalized partial-order verification of safe Petri nets.

   Command-line front end over the gpo libraries, named after the
   prototype tool of the paper.  Sub-commands:

     julie analyze   — run one or all engines on a net (file or builtin)
     julie trace     — print a firing sequence to a deadlock
     julie certify   — run engines with witnesses and check them independently
     julie serve     — warm-state verification daemon (batches, result cache)
     julie submit    — send a batch of jobs to a running daemon
     julie table1    — reproduce Table 1 of the paper
     julie fig       — reproduce the Figure 1 / Figure 2 series
     julie dot       — export a net or its reachability graph to DOT
     julie info      — structural report: conflicts, clusters, invariants *)

open Cmdliner

(* Exit codes (PROVE-style, so the CLI is scriptable):
     0 — the property holds / no deadlock found;
     1 — a certified deadlock or safety violation was found;
     2 — usage error (bad net source, bad arguments), or an
         indeterminate verdict: the exploration stopped early (state
         budget, --timeout deadline, --mem-mb memory budget,
         cancellation) before the space was covered, or a claimed
         violation failed certification.  A stopped exploration that
         found nothing is NOT a clean "no deadlock".
   Every verdict command takes its code from [Harness.Query.exit_code]. *)
let exit_ok = 0
let exit_usage = 2

let verdict_exits =
  Cmd.Exit.info 0 ~doc:"the net is deadlock free / the property holds."
  :: Cmd.Exit.info 1 ~doc:"a certified deadlock or property violation was found."
  :: Cmd.Exit.info exit_usage
       ~doc:"usage error (bad net source or arguments), or an indeterminate \
             verdict (state budget exhausted, certification failed)."
  :: Cmd.Exit.defaults

(* Wrap a command body so our own [failwith]s (and unreadable files)
   become exit code 2. *)
let usage_checked f =
  try f () with
  | Failure msg | Sys_error msg ->
      Format.eprintf "julie: %s@." msg;
      exit_usage

(* ------------------------------------------------------------------ *)
(* Observability options (shared by analyze and safety)                *)

type obs_opts = {
  stats : bool;
  metrics_out : string option;
  trace_out : string option;
  progress : bool;
}

let obs_term =
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"After each engine run, print the telemetry summary: counters \
                 (states, restarts, cache hits), distributions (worlds per \
                 state, stubborn-set sizes, p50/p90/p99) and span timings.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Stream the telemetry event trace (spans, progress samples, \
                 final totals) to $(docv) as JSON Lines, one event per line.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the run's timeline to $(docv) as Chrome trace-event \
                 JSON: open it in Perfetto (ui.perfetto.dev) or \
                 chrome://tracing to see spans on one track per domain, \
                 counter tracks, lock-wait spans and guard-trip/fault \
                 markers.")
  in
  let progress =
    Arg.(value & flag & info [ "progress" ]
           ~doc:"Force the stderr progress heartbeat (default: enabled by \
                 $(b,--stats) when stderr is a terminal).")
  in
  Term.(const (fun stats metrics_out trace_out progress ->
            { stats; metrics_out; trace_out; progress })
        $ stats $ metrics_out $ trace_out $ progress)

(* Install the sink/heartbeat described by the options around [f].
   [--stats] alone still installs the (null) sink: spans and
   distributions only record while a sink is enabled.  With both
   --metrics-out and --trace-out the event stream is teed; the trace
   file is rendered once the run is over and the sink uninstalled. *)
let with_obs opts f =
  let oc = Option.map open_out opts.metrics_out in
  let trace =
    Option.map
      (fun path ->
        let sink, read = Gpo_obs.memory_sink () in
        (path, sink, read))
      opts.trace_out
  in
  let want_sink = opts.stats || opts.progress || oc <> None || trace <> None in
  let sinks =
    Option.to_list (Option.map Gpo_obs.jsonl_channel_sink oc)
    @ Option.to_list (Option.map (fun (_, s, _) -> s) trace)
  in
  (match sinks with
  | [] -> if want_sink then Gpo_obs.install Gpo_obs.null_sink
  | [ s ] -> Gpo_obs.install s
  | s :: rest -> Gpo_obs.install (List.fold_left Gpo_obs.tee_sink s rest));
  if opts.progress || (opts.stats && Unix.isatty Unix.stderr) then
    Gpo_obs.Progress.set_heartbeat
      (Some (fun line -> Format.eprintf "[progress] %s@." line));
  Fun.protect
    ~finally:(fun () ->
      Gpo_obs.Progress.set_heartbeat None;
      if want_sink then Gpo_obs.uninstall ();
      Option.iter close_out oc;
      Option.iter
        (fun (path, _, read) ->
          Gpo_obs.Trace.write_file path (read ());
          Format.eprintf "wrote %s@." path)
        trace)
    f

(* ------------------------------------------------------------------ *)
(* Questions: net source, engine selection, budgets (Harness.Query)    *)

module Q = Harness.Query

(* A [Harness.Query] error is a usage error: [usage_checked] turns the
   [Failure] into exit 2. *)
let or_usage = function Ok x -> x | Error msg -> failwith msg

let file_arg =
  let doc = "Read the net from $(docv) (textual format, see Petri.Parser)." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let model_arg =
  let doc =
    "Use a builtin model: nsdp, asat, over, rw, scheduler, fig1, fig2, \
     fig3, fig5, fig7, or random (seeded by --size)."
  in
  Arg.(value & opt (some string) None & info [ "m"; "model" ] ~docv:"NAME" ~doc)

let size_arg =
  let doc = "Instance size (or random seed) for --model." in
  Arg.(value & opt int 4 & info [ "n"; "size" ] ~docv:"N" ~doc)

(* The net source, checked only when a command needs it ([submit --ping]
   needs none). *)
let source_term =
  let source file model size =
    match (file, model) with
    | Some path, None -> Ok (Q.File path)
    | None, Some id -> Ok (Q.Model { id; size })
    | Some _, Some _ -> Error "give either --file or --model, not both"
    | None, None -> Error "a net is required: --file FILE or --model NAME"
  in
  Term.(const source $ file_arg $ model_arg $ size_arg)

let load_source source = or_usage (Result.bind source Q.load)

let selection_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Q.selection_of_string s)),
      fun ppf sel -> Format.pp_print_string ppf (Q.selection_name sel) )

let engines_arg default =
  let doc =
    "Engine to run: full, po, smv, gpo, or portfolio (race the engines in \
     separate domains, first conclusive verdict wins).  Repeatable; default "
    ^ default ^ "."
  in
  Arg.(value & opt_all selection_conv [] & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

(* ------------------------------------------------------------------ *)
(* Budgets and resource governance (shared by the verdict commands)    *)

let max_states_arg =
  let doc = "State budget for the explicit engines." in
  Arg.(value & opt int 5_000_000 & info [ "max-states" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "GPO wave workers: the GPO explorer fans each wave of runs out over \
     $(docv) domains, with the same result as one; 0 means auto (the \
     recommended domain count for this machine).  The full, po and smv \
     engines run on one domain and ignore it.  With $(b,-e portfolio) it \
     applies to the GPO entrant."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc =
    "Wall-clock deadline in $(docv) seconds for each engine run.  A run \
     that overshoots stops cooperatively and reports stop reason \
     $(i,deadline); a clean verdict is then inconclusive (exit 2), while \
     a violation found before the deadline still counts."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC" ~doc)

let mem_mb_arg =
  let doc =
    "Soft memory budget in $(docv) MiB for each engine run.  When the \
     major heap crosses the budget the run stops with stop reason \
     $(i,memory) and degrades to an inconclusive verdict instead of \
     crashing."
  in
  Arg.(value & opt (some int) None & info [ "mem-mb" ] ~docv:"MB" ~doc)

let budgets_term max_states =
  Term.(const (fun max_states jobs timeout_s mem_mb ->
            { Q.max_states; jobs; timeout_s; mem_mb })
        $ max_states $ jobs_arg $ timeout_arg $ mem_mb_arg)

let reduce_term =
  Arg.(value & flag
       & info [ "reduce" ]
           ~doc:"Apply the structural reduction pipeline (agglomeration, \
                 redundant-place removal, dead-transition elimination) to \
                 the net before each engine runs.  Every rule preserves the \
                 verdict, and witnesses are lifted back so they replay — \
                 and certify — against the original net.")

(* The human-readable reduction summary, printed once per command before
   the engine runs.  This informational pipeline run happens before any
   [observed_run] resets telemetry, so the per-run stats and metrics
   carry only the engine-internal reduction. *)
let pp_reduction net =
  let r = Reduce.run net in
  Format.printf "reduction: %a@." Reduce.pp_summary r

let pp_race (r : Harness.Portfolio.report) =
  Format.printf "portfolio: %s won [%s]%s@."
    (Harness.Engine.name r.outcome.Harness.Engine.kind)
    (String.concat " " (List.map Harness.Engine.name r.raced))
    (if r.cancelled_losers > 0 then
       Printf.sprintf ", %d loser(s) cancelled" r.cancelled_losers
     else "")

(* One instrumented run of [sel] on the prepared question: telemetry is
   reset so the summary and the emitted totals cover exactly this run. *)
let observed_run obs ~reduce budgets (q : Q.t) sel =
  let engine = Gpo_obs.S (Q.selection_name sel) in
  Gpo_obs.reset ();
  Gpo_obs.meta "run"
    [ ("net", Gpo_obs.S q.target.Petri.Net.name); ("engine", engine) ];
  let outcome = Q.run ~on_race:pp_race ~witness:true ~reduce budgets sel q in
  Gpo_obs.meta "outcome"
    [
      ("engine", engine);
      ("deadlock", Gpo_obs.B outcome.deadlock);
      ("stop_reason", Gpo_obs.S (Guard.string_of_stop outcome.stop));
    ];
  Gpo_obs.emit_snapshot ();
  if obs.stats then Format.printf "%a@." Gpo_obs.pp_summary (Gpo_obs.snapshot ());
  outcome

(* ------------------------------------------------------------------ *)
(* Verdict commands: analyze, trace, safety, certify                   *)

(* How a command prints a certified witness. *)
type render =
  | Certificate  (* the witness and its certificate block *)
  | Replay  (* the step-by-step replay *)
  | Scenario  (* the scenario marking the cover *)

let pp_answer render (q : Q.t) cover (o : Harness.Engine.outcome) = function
  | Harness.Certify.Certified { trace; _ } as certificate -> (
      match render with
      | Certificate ->
          Format.printf "  %a@." (Harness.Certify.pp q.net) certificate
      | Replay ->
          Format.printf "@[<v>deadlock reached by:@ %a@ @ %a@]@."
            (Petri.Trace.pp q.net) trace (Petri.Trace.pp_replay q.net) trace
      | Scenario ->
          Format.printf
            "VIOLATED: {%s} can be marked simultaneously@.scenario \
             (certified): %a@."
            (String.concat ", " cover) (Petri.Trace.pp q.net) trace)
  | Harness.Certify.Rejected _ as certificate ->
      Format.printf "  %a@." (Harness.Certify.pp q.net) certificate
  | Harness.Certify.Inconclusive ->
      Format.printf "  inconclusive: %s before the state space was covered%s@."
        (Guard.describe_stop o.stop)
        (match o.stop with
        | Guard.State_budget -> " (raise --max-states)"
        | Guard.Deadline -> " (raise --timeout)"
        | Guard.Memory -> " (raise --mem-mb)"
        | _ -> "")
  | Harness.Certify.Clean -> (
      match cover with
      | [] -> Format.printf "  holds: deadlock free@."
      | _ ->
          Format.printf "  holds: {%s} never marked simultaneously@."
            (String.concat ", " cover))

(* The one command body: run every selected engine with witnesses,
   classify each outcome through [Harness.Query], fold the exit code. *)
let verdict_command render default source engines budgets cover reduce obs =
  usage_checked @@ fun () ->
  let q = or_usage (Result.bind source (Q.prepare ~cover)) in
  Format.printf "%a@." Petri.Net.pp_summary q.net;
  (* The engines of a cover question see the monitored net, so that is
     what reduction shrinks; [Q.classify] projects the lifted witness
     back to the original net. *)
  if reduce then pp_reduction q.target;
  with_obs obs @@ fun () ->
  let verdicts =
    List.map
      (fun sel ->
        let o = observed_run obs ~reduce budgets q sel in
        Format.printf "%a@." Harness.Engine.pp_outcome o;
        let certificate, verdict = Q.classify q o in
        pp_answer render q cover o certificate;
        verdict)
      (match engines with [] -> default | _ -> engines)
  in
  Q.exit_code verdicts

let gpo_only = ([ Q.Single Harness.Engine.Gpo ], "gpo")

let all_four =
  (List.map (fun k -> Q.Single k) Harness.Engine.all, "all four single engines")

let place_arg doc =
  Arg.(opt_all string [] & info [ "p"; "place" ] ~docv:"PLACE" ~doc)

let no_obs =
  { stats = false; metrics_out = None; trace_out = None; progress = false }

let verdict_cmd name ~doc ~render ~default:(default, default_doc) ~cover
    ~max_states ~obs =
  Cmd.v
    (Cmd.info name ~exits:verdict_exits ~doc)
    Term.(const (verdict_command render default) $ source_term
          $ engines_arg default_doc $ budgets_term max_states $ cover
          $ reduce_term $ obs)

let analyze_cmd =
  verdict_cmd "analyze" ~render:Certificate ~default:all_four
    ~cover:(Term.const []) ~max_states:max_states_arg ~obs:obs_term
    ~doc:"Check a net for deadlock with the chosen engines; every deadlock \
          ships a witness checked by an independent replay.  Exits with 0 \
          when every engine reports the net deadlock free, 1 when a \
          certified deadlock is found, 2 on usage errors, when a clean \
          report came from a truncated exploration (inconclusive), or when \
          a claimed deadlock fails certification."

let trace_cmd =
  verdict_cmd "trace" ~render:Replay ~default:gpo_only ~cover:(Term.const [])
    ~max_states:max_states_arg ~obs:(Term.const no_obs)
    ~doc:"Print a firing sequence reaching a deadlock, reconstructed by the \
          chosen engine (default gpo), certified, and replayed step by step."

let safety_cmd =
  verdict_cmd "safety" ~render:Scenario ~default:gpo_only
    ~cover:
      Arg.(non_empty
           & place_arg
               "Place of the cover to check (repeatable, required): the \
                property is that all given places are never marked at once.")
    ~max_states:(Term.const 5_000_000) ~obs:obs_term
    ~doc:"Check a coverability safety property by reduction to deadlock.  \
          Exits with 0 when the property holds, 1 when a certified \
          violation is found, 2 on usage errors, inconclusive runs or \
          failed certification."

let certify_cmd =
  verdict_cmd "certify" ~render:Certificate ~default:all_four
    ~cover:
      Arg.(value
           & place_arg
               "Certify a safety property instead of deadlock freedom: the \
                places given (repeatable) must never be marked at once.")
    ~max_states:max_states_arg ~obs:obs_term
    ~doc:"Run the chosen engines with witnesses and check every violation \
          verdict independently: the witness is replayed step by step \
          against the net semantics and its final marking is confirmed \
          dead (or, with $(b,--place), to cover the bad places on the \
          original net).  Exits 0 when the property holds, 1 when a \
          certified violation exists, 2 when inconclusive or when a \
          claimed violation fails certification."

(* ------------------------------------------------------------------ *)
(* table1 / fig                                                        *)

let table1 budget =
  let measurements =
    Harness.Experiment.table1 ~max_states:5_000_000 ~full_budget:budget ()
  in
  Format.printf "%a@." Harness.Experiment.pp_table1 measurements;
  exit_ok

let table1_cmd =
  let budget =
    Arg.(value & opt float 60. & info [ "budget" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget per family for the expensive engines.")
  in
  let info = Cmd.info "table1" ~doc:"Reproduce Table 1 of the paper." in
  Cmd.v info Term.(const table1 $ budget)

let fig which max_n =
  usage_checked @@ fun () ->
  (match which with
  | "fig1" | "1" ->
      List.iter
        (fun (label, count) -> Format.printf "%-45s %d@." label count)
        (Harness.Experiment.fig1_series ())
  | "fig2" | "2" ->
      Format.printf "%a@." Harness.Experiment.pp_fig2
        (Harness.Experiment.fig2_series ~max_n ())
  | s -> failwith (Printf.sprintf "unknown figure %S (expected fig1 or fig2)" s));
  exit_ok

let fig_cmd =
  let which =
    Arg.(value & pos 0 string "fig2" & info [] ~docv:"FIGURE" ~doc:"fig1 or fig2.")
  in
  let max_n =
    Arg.(value & opt int 12 & info [ "max-n" ] ~docv:"N" ~doc:"Largest N for fig2.")
  in
  let info = Cmd.info "fig" ~doc:"Reproduce the figure series of the paper." in
  Cmd.v info Term.(const fig $ which $ max_n)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)

let dot source graph gpo_graph output =
  usage_checked @@ fun () ->
  let net = load_source source in
  let contents =
    if gpo_graph then Gpn.Render.result (Gpn.Explorer.analyse net)
    else if graph then
      Petri.Dot.reachability_graph net (Petri.Reachability.explore ~max_states:10_000 net)
    else Petri.Dot.net net
  in
  (match output with
  | None -> print_string contents
  | Some path ->
      Petri.Dot.write path contents;
      Format.printf "wrote %s@." path);
  exit_ok

let dot_cmd =
  let graph =
    Arg.(value & flag & info [ "g"; "graph" ]
           ~doc:"Render the reachability graph instead of the net structure.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to $(docv) instead of stdout.")
  in
  let gpo_graph =
    Arg.(value & flag & info [ "gpo" ]
           ~doc:"Render the generalized partial-order state graph instead.")
  in
  let info = Cmd.info "dot" ~doc:"Export a net (or a state graph) to Graphviz." in
  Cmd.v info Term.(const dot $ source_term $ graph $ gpo_graph $ output)

(* ------------------------------------------------------------------ *)
(* bench-diff                                                          *)

let bench_diff base fresh threshold =
  usage_checked @@ fun () ->
  match Bench_compare.Compare.compare_files ~threshold ~base ~fresh () with
  | Error msg ->
      Format.eprintf "julie: %s@." msg;
      exit_usage
  | Ok outcome ->
      Format.printf "@[<v>%a@]@?" Bench_compare.Compare.pp_outcome outcome;
      if Bench_compare.Compare.ok outcome then exit_ok else 1

let bench_diff_cmd =
  let base =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE"
           ~doc:"Committed baseline report (a BENCH_*.json).")
  in
  let fresh =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FRESH"
           ~doc:"Freshly produced report to check against the baseline.")
  in
  let threshold =
    Arg.(value & opt float Bench_compare.Compare.default_threshold
         & info [ "threshold" ] ~docv:"FRACTION"
             ~doc:"Noise slack as a fraction: a time-like metric regresses \
                   only beyond base*(1+$(docv)) (and a small absolute \
                   floor); speedup mirrors the test; overhead_pct is \
                   judged on absolute growth of 10*$(docv) points.")
  in
  let info =
    Cmd.info "bench-diff" ~exits:verdict_exits
      ~doc:"Diff two bench reports (fresh vs committed baseline).  Rows are \
            matched by their identity fields (net, jobs, …); known metric \
            fields are compared under per-metric noise thresholds.  Exits 0 \
            when no metric regressed beyond threshold, 1 on regression, 2 on \
            unreadable or malformed reports — the CI regression gate."
  in
  Cmd.v info Term.(const bench_diff $ base $ fresh $ threshold)

(* ------------------------------------------------------------------ *)
(* serve / submit                                                      *)

let endpoint_of socket port host =
  match (socket, port) with
  | Some path, None -> Serve.Server.Unix_path path
  | None, Some port -> Serve.Server.Tcp { host; port }
  | Some _, Some _ -> failwith "give either --socket or --port, not both"
  | None, None -> failwith "an endpoint is required: --socket PATH or --port N"

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Serve on (or connect to) the Unix-domain socket at $(docv).")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
         ~doc:"Serve on (or connect to) TCP port $(docv) at $(b,--host); \
               port 0 lets the OS pick and the server prints the bound \
               port on startup.")

let host_arg =
  Arg.(value & opt string "localhost" & info [ "host" ] ~docv:"HOST"
         ~doc:"Host for $(b,--port) (default localhost).")

let serve socket port host jobs queue_limit max_requests cache_dir io_timeout_s
    obs =
  usage_checked @@ fun () ->
  let endpoint = endpoint_of socket port host in
  with_obs obs @@ fun () ->
  Serve.Server.serve ~jobs ~queue_limit ?max_requests ?cache_dir ~io_timeout_s
    ~on_ready:(fun ep ->
      (match Harness.Result_cache.last_recovery () with
      | Some r ->
          Format.printf
            "julie: cache recovered %d entr%s (%d rejected, %d invalidated, \
             %d torn bytes%s)@."
            r.Harness.Result_cache.recovered
            (if r.Harness.Result_cache.recovered = 1 then "y" else "ies")
            r.Harness.Result_cache.rejected
            r.Harness.Result_cache.invalidated
            r.Harness.Result_cache.torn_bytes
            (if r.Harness.Result_cache.compacted then ", compacted" else "")
      | None -> ());
      Format.printf "julie: listening on %a@." Serve.Server.pp_endpoint ep;
      Format.print_flush ())
    endpoint;
  exit_ok

let serve_cmd =
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains the daemon fans each batch's jobs out over; \
                 0 means auto (the recommended domain count for this \
                 machine).  A job's own GPO wave workers come from its wire \
                 $(b,jobs) field.")
  in
  let queue_limit =
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Admission bound: a batch of more than $(docv) jobs is \
                 refused whole with a typed queue_full rejection.  The \
                 daemon runs one batch at a time, so nothing else is \
                 refused.")
  in
  let max_requests =
    Arg.(value & opt (some int) None & info [ "max-requests" ] ~docv:"N"
           ~doc:"Stop after $(docv) processed requests (tests and CI smoke).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persist the result cache as an append-only checksummed \
                 journal under $(docv) (created if missing).  On startup the \
                 journal is recovered: torn tails are truncated at the first \
                 bad checksum, and every entry is re-admitted only after its \
                 witness re-certifies by replay — a restarted server serves \
                 byte-identical cached verdicts, never corrupt ones.")
  in
  let io_timeout_s =
    Arg.(value & opt float 30. & info [ "io-timeout-s" ] ~docv:"SECONDS"
           ~doc:"Per-connection read/write deadline: a client that stalls \
                 mid-frame or stops reading gets a typed timed_out reply and \
                 its socket closed instead of blocking the accept loop \
                 (<= 0 disables; default 30).")
  in
  let info =
    Cmd.info "serve"
      ~doc:"Run the warm-state verification daemon.  The process keeps the \
            hash-consed world-set tables, engine memo caches and the \
            content-addressed result cache alive across requests, so \
            repeated questions are answered from cache (after their witness \
            re-certifies by replay) instead of re-explored.  One \
            length-prefixed JSON frame per request/response; stop it with \
            $(b,julie submit --shutdown) or a SIGTERM (graceful drain: stop \
            accepting, finish in-flight work, flush the journal, exit 0)."
  in
  Cmd.v info
    Term.(const serve $ socket_arg $ port_arg $ host_arg $ jobs
          $ queue_limit $ max_requests $ cache_dir $ io_timeout_s $ obs_term)

let jobs_of_batch_text text =
  let job_of item =
    match Serve.Protocol.job_of_json item with
    | Ok j -> j
    | Error msg -> failwith ("batch: " ^ msg)
  in
  match Gpo_obs.Json.of_string text with
  | Error msg -> failwith ("batch: " ^ msg)
  | Ok (Gpo_obs.Json.List items) -> List.map job_of items
  | Ok (Gpo_obs.Json.Obj _ as o) -> (
      match Gpo_obs.Json.member "jobs" o with
      | Some (Gpo_obs.Json.List items) -> List.map job_of items
      | _ -> failwith "batch: expected a list of jobs or {\"jobs\": [...]}")
  | Ok _ -> failwith "batch: expected a list of jobs"

let submit socket port host source cover engine budgets witness reduce repeat
    batch json_out retries backoff_ms ping stats shutdown =
  usage_checked @@ fun () ->
  let endpoint = endpoint_of socket port host in
  let fail msg =
    Format.eprintf "julie: %s@." msg;
    exit_usage
  in
  let failc f = fail (Serve.Client.describe_failure f) in
  if ping then
    match Serve.Client.ping endpoint with
    | Ok Serve.Protocol.Pong ->
        Format.printf "pong@.";
        exit_ok
    | Ok _ -> fail "unexpected reply to ping"
    | Error f -> failc f
  else if stats then
    match Serve.Client.stats endpoint with
    | Ok (Serve.Protocol.Stats_reply stats) ->
        print_endline (Gpo_obs.Json.to_string stats);
        exit_ok
    | Ok _ -> fail "unexpected reply to stats"
    | Error f -> failc f
  else if shutdown then
    match Serve.Client.shutdown endpoint with
    | Ok Serve.Protocol.Bye ->
        Format.printf "server stopped@.";
        exit_ok
    | Ok _ -> fail "unexpected reply to shutdown"
    | Error f -> failc f
  else
    let batch_jobs =
      match batch with
      | Some path ->
          jobs_of_batch_text (In_channel.with_open_text path In_channel.input_all)
      | None ->
          let net =
            match or_usage source with
            | Q.File path ->
                Serve.Protocol.Inline
                  (In_channel.with_open_text path In_channel.input_all)
            | Q.Inline text -> Serve.Protocol.Inline text
            | Q.Model { id; size } -> Serve.Protocol.Model { id; size }
          in
          let { Q.max_states; jobs; timeout_s; mem_mb } = budgets in
          let j =
            Serve.Protocol.job ~cover ~engine:(Q.selection_name engine)
              ~max_states ~witness ~reduce ~jobs ?timeout_s ?mem_mb net
          in
          List.init (max 1 repeat) (fun _ -> j)
    in
    match Serve.Client.submit ~retries ~backoff_ms endpoint batch_jobs with
    | Error f -> failc f
    | Ok (Serve.Protocol.Rejected r) ->
        Format.eprintf "julie: rejected: %s (limit %d, batch %d)@."
          r.Serve.Protocol.reason r.limit r.batch;
        exit_usage
    | Ok (Serve.Protocol.Results results) ->
        let verdicts = List.map Serve.Protocol.classify results in
        if json_out then
          print_endline
            (Gpo_obs.Json.to_string
               (Serve.Protocol.json_of_response (Serve.Protocol.Results results)))
        else
          List.iter2
            (fun (r : Serve.Protocol.job_result) v ->
              Format.printf "%-10s %s%s%s%s@." r.id (Q.verdict_name v)
                (if r.cached then " [cached]" else "")
                (if r.deduped then " [deduped]" else "")
                (match r.certified with
                | Some true -> " [certified]"
                | Some false -> " [CERTIFICATION FAILED]"
                | None -> ""))
            results verdicts;
        Q.exit_code verdicts
    | Ok _ -> fail "unexpected reply to submit"

let submit_cmd =
  let cover =
    Arg.(value & opt_all string [] & info [ "p"; "place" ] ~docv:"PLACE"
           ~doc:"Check a coverability property (repeatable, as in \
                 $(b,julie safety)) instead of deadlock freedom.")
  in
  let engine =
    Arg.(value & opt selection_conv (Q.Single Harness.Engine.Gpo)
         & info [ "e"; "engine" ] ~docv:"ENGINE"
             ~doc:"Engine: full, po, smv, gpo, or portfolio.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Submit $(docv) copies of the job in one batch — duplicates \
                 are deduped server-side, so this demonstrates in-batch \
                 dedupe and cache hits.")
  in
  let batch =
    Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE"
           ~doc:"Read the batch from $(docv): a JSON list of job objects \
                 (or {\"jobs\": [...]}) in the wire format.")
  in
  let json_out =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the raw JSON response instead of one line per job.")
  in
  let retries =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry a transient failure (connection refused, i/o \
                 timeout) up to $(docv) times with exponential backoff and \
                 full jitter.  A queue_full rejection is not retried: \
                 re-sending the same batch cannot fit it.  Safe: jobs are \
                 idempotent content-addressed questions.  Default 0.")
  in
  let backoff_ms =
    Arg.(value & opt int 50 & info [ "backoff-ms" ] ~docv:"MS"
           ~doc:"Base backoff for $(b,--retries): attempt k sleeps uniformly \
                 in [0, $(docv)*2^k] milliseconds (ceiling 10s).")
  in
  let witness =
    Arg.(value & opt bool true & info [ "witness" ] ~docv:"BOOL"
           ~doc:"Ask for (and certify) counterexample witnesses (default \
                 true — certification is the point of the service).")
  in
  let ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Health check: expect pong.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the server's lifetime telemetry snapshot, cache and \
                 queue stats as JSON.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Stop the server gracefully.")
  in
  let info =
    Cmd.info "submit" ~exits:verdict_exits
      ~doc:"Submit a batch of verification jobs to a running $(b,julie \
            serve) daemon and fold the results into the usual exit-code \
            contract: 0 when every job holds, 1 when any certified violation \
            was found, 2 on failures, inconclusive verdicts, admission \
            rejection, or certification failure."
  in
  Cmd.v info
    Term.(const submit $ socket_arg $ port_arg $ host_arg $ source_term $ cover
          $ engine $ budgets_term max_states_arg $ witness $ reduce_term
          $ repeat $ batch $ json_out $ retries $ backoff_ms $ ping $ stats
          $ shutdown)

(* ------------------------------------------------------------------ *)
(* siphons                                                             *)

let siphons source =
  usage_checked @@ fun () ->
  let net = load_source source in
  Format.printf "%a@." Petri.Net.pp_summary net;
  Format.printf "free choice: %b@." (Petri.Siphon.is_free_choice net);
  let siphons = Petri.Siphon.minimal_siphons net in
  Format.printf "minimal siphons: %d@." (List.length siphons);
  List.iter
    (fun s ->
      let trap = Petri.Siphon.max_trap_inside net s in
      let marked =
        (not (Petri.Bitset.is_empty trap))
        && Petri.Bitset.intersects trap net.Petri.Net.initial
      in
      Format.printf "  %a — max trap %s@." (Petri.Net.pp_marking net) s
        (if marked then "marked (protected)" else "unmarked (deadlock risk)"))
    siphons;
  Format.printf "Commoner's condition: %b@." (Petri.Siphon.commoner_holds net);
  exit_ok

let siphons_cmd =
  let info =
    Cmd.info "siphons" ~doc:"Structural deadlock analysis: minimal siphons and traps."
  in
  Cmd.v info Term.(const siphons $ source_term)

(* ------------------------------------------------------------------ *)
(* info                                                                *)

let info_command source =
  usage_checked @@ fun () ->
  let net = load_source source in
  Format.printf "%a@." Petri.Net.pp_summary net;
  let conflict = Petri.Conflict.analyse net in
  let clusters =
    Array.to_list (Petri.Conflict.clusters conflict)
    |> List.filter (fun c -> Petri.Bitset.cardinal c >= 2)
  in
  Format.printf "conflict clusters (size ≥ 2): %d@." (List.length clusters);
  List.iter
    (fun c -> Format.printf "  %a@." (Petri.Net.pp_transition_set net) c)
    clusters;
  let p_invariants = Petri.Invariant.p_invariants net in
  Format.printf "P-invariant basis (%d):@." (List.length p_invariants);
  List.iter
    (fun y -> Format.printf "  %a@." (Petri.Invariant.pp_invariant ~kind:`Place net) y)
    p_invariants;
  let report = Petri.Properties.check ~max_states:200_000 net in
  Format.printf "%a@." (Petri.Properties.pp_report net) report;
  exit_ok

let info_cmd =
  let info = Cmd.info "info" ~doc:"Structural and behavioural report for a net." in
  Cmd.v info Term.(const info_command $ source_term)

(* ------------------------------------------------------------------ *)

let main =
  let doc = "generalized partial-order verification of safe Petri nets" in
  let info = Cmd.info "julie" ~version:"1.0.0" ~doc ~exits:verdict_exits in
  Cmd.group info
    [
      analyze_cmd; trace_cmd; certify_cmd; safety_cmd; serve_cmd; submit_cmd;
      siphons_cmd; table1_cmd; fig_cmd; dot_cmd; info_cmd; bench_diff_cmd;
    ]

let () =
  let code = Cmd.eval' main in
  (* Cmdliner reports its own parse errors with its default code; remap
     to the documented usage-error code. *)
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
