(* Benchmark harness: regenerates every table and figure of the paper
   and times the engines.  The verification service is measured end to
   end by bench/e2e.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # Table 1 reproduction only
     dune exec bench/main.exe fig1       # Figure 1 series
     dune exec bench/main.exe fig2       # Figure 2 series
     dune exec bench/main.exe gpo        # GPO time against problem size
     dune exec bench/main.exe scaling    # GPO wave speedup + portfolio
     dune exec bench/main.exe guard      # resource-guard polling overhead
     dune exec bench/main.exe reduce     # structural reduction ratio/speedup *)

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* Every job also writes its numbers as BENCH_<job>.json — the
   machine-readable record future PRs diff their measurements against
   (julie bench-diff).  Each report carries a "meta" provenance block
   (cores, os, git sha, run id) so a committed baseline says where its
   numbers came from. *)
let write_report job json =
  let path = Printf.sprintf "BENCH_%s.json" job in
  Harness.Report.write_file path (Harness.Report.with_meta json);
  Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let table1 () =
  section "Table 1 — NSDP / ASAT / OVER / RW under the four engines";
  Format.printf
    "Engines: full = conventional exhaustive exploration; spin+po = stubborn-set@.\
     partial order; smv = from-scratch BDD reachability (metric: peak live@.\
     nodes); gpo = generalized partial order (metric: GPN states).@.\
     Cells are measured/seconds with the paper's value in parentheses;@.\
     'skip' = the engine's per-family time budget was exhausted — these@.\
     are the paper's \"> 24 hours\" cells.@.@.";
  let measurements = Harness.Experiment.table1 ~max_states:5_000_000 () in
  Format.printf "%a@." Harness.Experiment.pp_table1 measurements;
  write_report "table1" (Harness.Report.json_of_table1 measurements)

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)

let fig1 () =
  section "Figure 1 — three concurrent transitions";
  let series = Harness.Experiment.fig1_series () in
  List.iter (fun (label, count) -> Format.printf "%-45s %d@." label count) series;
  write_report "fig1" (Harness.Report.json_of_fig1 series)

let fig2 () =
  section "Figure 2 — N concurrently marked conflict pairs";
  let series = Harness.Experiment.fig2_series ~max_n:12 () in
  Format.printf "%a@." Harness.Experiment.pp_fig2 series;
  write_report "fig2" (Harness.Report.json_of_fig2 series)

(* ------------------------------------------------------------------ *)
(* Helpers of the timed jobs                                           *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Called before each timed repetition of the gpo, scaling and reduce
   jobs, outside the timed region, so that a repetition starts as cold
   as a fresh [julie certify] process: the world-set computed table is
   dropped, and a major collection sweeps the previous repetition's
   garbage and the weak unique tables' dead entries. *)
let cold () =
  Gpn.World_set.clear_caches ();
  Gc.full_major ()

(* BENCH_SMOKE=1 shrinks the instances and repetitions of the jobs
   below — a smoke test that a job runs and its report schema holds,
   not a measurement. *)
let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None

(* ------------------------------------------------------------------ *)
(* GPO time against problem size: the paper's Table 1 claim that GPO
   runs in near-linear time while its state count stays flat.  Each
   row times [Gpn.Explorer.analyse] in the default configuration (the
   one [julie certify -e gpo] runs), set-up included; [states] is an
   identity field, so a behaviour change fails the gate instead of
   passing for a speedup. *)

let gpo_scaling () =
  let module J = Gpo_obs.Json in
  section "GPO — time against problem size";
  (* family, instance builder, smoke sizes, full sizes *)
  let families =
    [
      ("nsdp", Models.Nsdp.make, [ 4; 6 ], [ 4; 6; 8; 10; 12 ]);
      ("fig2", Models.Figures.fig2, [ 4; 6 ], [ 4; 6; 8; 10; 12 ]);
      ("asat", Models.Asat.make, [ 2; 4 ], [ 2; 4; 8 ]);
      ("over", Models.Over.make, [ 2; 3 ], [ 2; 3; 4; 5 ]);
      ("rw", Models.Rw.make, [ 6; 12 ], [ 6; 9; 12; 15; 30; 45; 60 ]);
    ]
  in
  let reps = if smoke then 1 else 3 in
  Format.printf "%-8s %4s %8s %10s@." "family" "n" "states" "time";
  let rows =
    List.concat_map
      (fun (family, make, smoke_ns, full_ns) ->
        List.map
          (fun n ->
            let net = make n in
            let best = ref infinity and states = ref 0 in
            for _ = 1 to reps do
              cold ();
              let r, t = time (fun () -> Gpn.Explorer.analyse net) in
              states := r.Gpn.Explorer.states;
              best := Float.min !best t
            done;
            Format.printf "%-8s %4d %8d %9.4fs@." family n !states !best;
            J.Obj
              [
                ("family", J.String family);
                ("n", J.Int n);
                ("states", J.Int !states);
                ("time_s", J.Float !best);
              ])
          (if smoke then smoke_ns else full_ns))
      families
  in
  write_report "gpo"
    (J.Obj
       [ ("table", J.String "gpo"); ("smoke", J.Bool smoke); ("rows", J.List rows) ])

(* ------------------------------------------------------------------ *)
(* Scaling: the wave-parallel GPN explorer at 1/2/4 domains on
   restart-heavy nets, and the racing portfolio against each single
   engine.  The report records the host's recommended domain count: on
   a single-core host the speedup column measures wave overhead, not
   parallelism, and reads near (or below) 1x by design.                *)

let scaling () =
  let module J = Gpo_obs.Json in
  section "Scaling — parallel GPN exploration (1/2/4 domains)";
  let cores = Domain.recommended_domain_count () in
  Format.printf
    "host: %d recommended domain(s); speedup is vs the same binary at jobs=1@.@."
    cores;
  let reps = if smoke then 2 else 3 in
  let job_counts = [ 1; 2; 4 ] in
  Format.printf
    "workload: over(k) with the deviation scan — many restart runs per@.\
     wave, the unit the GPO explorer parallelizes over.@.@.";
  (* The smoke run keeps over-5, a net of the committed report, so CI
     can check its rows' identity fields against it. *)
  let gpn_nets =
    if smoke then [ ("over-5", Models.Over.make 5) ]
    else [ ("over-5", Models.Over.make 5); ("over-6", Models.Over.make 6) ]
  in
  let gpn_rows = ref [] in
  Format.printf "%-10s %10s %6s %6s %10s %9s@." "net" "states" "runs" "jobs"
    "time" "speedup";
  List.iter
    (fun (name, net) ->
      let base = ref nan in
      List.iter
        (fun jobs ->
          let best = ref infinity and states = ref 0 and runs = ref 0 in
          for _ = 1 to reps do
            cold ();
            let r, t =
              time (fun () -> Gpn.Explorer.analyse ~scan:true ~jobs net)
            in
            if t < !best then best := t;
            states := r.Gpn.Explorer.states;
            runs := List.length r.Gpn.Explorer.runs
          done;
          if jobs = 1 then base := !best;
          let speedup = !base /. !best in
          Format.printf "%-10s %10d %6d %6d %9.3fs %8.2fx@." name !states !runs
            jobs !best speedup;
          gpn_rows :=
            J.Obj
              [
                ("net", J.String name);
                ("jobs", J.Int jobs);
                ("states", J.Int !states);
                ("runs", J.Int !runs);
                ("time_s", J.Float !best);
                ("speedup", J.Float speedup);
              ]
            :: !gpn_rows)
        job_counts;
      Format.printf "@.")
    gpn_nets;
  section "Scaling — racing portfolio vs the single engines";
  let pf_rows = ref [] in
  let pf_nets =
    if smoke then [ ("nsdp-4", Models.Nsdp.make 4) ]
    else [ ("nsdp-6", Models.Nsdp.make 6); ("over-4", Models.Over.make 4) ]
  in
  List.iter
    (fun (name, net) ->
      let singles =
        List.map
          (fun kind ->
            cold ();
            let o = Harness.Engine.run ~gpo_scan:true kind net in
            (Harness.Engine.name kind, o.Harness.Engine.time_s))
          Harness.Engine.all
      in
      cold ();
      let r, t = time (fun () -> Harness.Portfolio.run net) in
      let winner =
        Harness.Engine.name r.Harness.Portfolio.outcome.Harness.Engine.kind
      in
      let best_name, best_t =
        List.fold_left
          (fun (bn, bt) (n, t) -> if t < bt then (n, t) else (bn, bt))
          ("", infinity) singles
      in
      Format.printf
        "%-10s portfolio %.3fs (winner: %s) — best single: %s %.3fs@." name t
        winner best_name best_t;
      pf_rows :=
        J.Obj
          [
            ("net", J.String name);
            ("portfolio_time_s", J.Float t);
            ("winner", J.String winner);
            ("cancelled_losers", J.Int r.Harness.Portfolio.cancelled_losers);
            ("best_single", J.String best_name);
            ("best_single_time_s", J.Float best_t);
            ("singles", J.Obj (List.map (fun (n, t) -> (n, J.Float t)) singles));
          ]
        :: !pf_rows)
    pf_nets;
  write_report "scaling"
    (J.Obj
       [
         ("table", J.String "scaling");
         ("cores", J.Int cores);
         ("smoke", J.Bool smoke);
         ("gpn", J.List (List.rev !gpn_rows));
         ("portfolio", J.List (List.rev !pf_rows));
       ])

(* ------------------------------------------------------------------ *)
(* Guard overhead: the deadline/memory poll sits in the hottest loop of
   the explicit engines, so its cost must stay in the noise.  Plain and
   guarded runs are interleaved (same rep sees the same cache/GC
   climate) and the best of each side is compared.  [states] is an
   identity field, as in the gpo job.                                  *)

let guard_overhead () =
  let module J = Gpo_obs.Json in
  section "Guard — budget polling overhead in the explicit hot loop";
  let nets =
    if smoke then
      [ ("nsdp-8", Models.Nsdp.make 8); ("asat-4", Models.Asat.make 4) ]
    else [ ("nsdp-12", Models.Nsdp.make 12); ("asat-8", Models.Asat.make 8) ]
  in
  let reps = if smoke then 2 else 5 in
  (* The big instances overflow any exhaustive budget; a fixed state
     budget gives both sides the exact same amount of work. *)
  let max_states = if smoke then 50_000 else 500_000 in
  let rows = ref [] in
  Format.printf "%-10s %8s %10s %10s %10s@." "net" "states" "plain" "guarded"
    "overhead";
  List.iter
    (fun (name, net) ->
      let plain = ref infinity and guarded = ref infinity and states = ref 0 in
      for _ = 1 to reps do
        let r, t = time (fun () -> Petri.Reachability.explore ~max_states net) in
        states := r.Petri.Reachability.states;
        plain := Float.min !plain t;
        let r, t =
          time (fun () ->
              (* Generous budgets: armed, polled, never tripping. *)
              let guard = Guard.create ~deadline_s:3600. ~mem_mb:65536 () in
              Petri.Reachability.explore ~max_states ~guard net)
        in
        assert (r.Petri.Reachability.states = !states);
        guarded := Float.min !guarded t
      done;
      let overhead_pct = (!guarded -. !plain) /. !plain *. 100. in
      Format.printf "%-10s %8d %9.3fs %9.3fs %9.2f%%@." name !states !plain
        !guarded overhead_pct;
      rows :=
        J.Obj
          [
            ("net", J.String name);
            ("states", J.Int !states);
            ("plain_s", J.Float !plain);
            ("guarded_s", J.Float !guarded);
            ("overhead_pct", J.Float overhead_pct);
          ]
        :: !rows)
    nets;
  write_report "guard"
    (J.Obj
       [
         ("table", J.String "guard");
         ("smoke", J.Bool smoke);
         ("rows", J.List (List.rev !rows));
       ])

(* ------------------------------------------------------------------ *)
(* Structural reduction: how much the pipeline shrinks each family and
   what that buys end to end.  [reduced_s] times [Engine.run
   ~reduce:true] — reduction included, so the speedup column is the
   honest end-to-end gain, not the gain on a pre-shrunk net.  The
   deadlock columns of both sides are recorded (and asserted equal in
   CI): a reduction bug shows up as a verdict flip, not a time blip.  *)

let reduce_bench () =
  let module J = Gpo_obs.Json in
  section "Reduce — structural reduction ratio and end-to-end speedup";
  let nets =
    if smoke then
      [
        ("rw-6", Models.Rw.make 6);
        ("over-3", Models.Over.make 3);
        ("nsdp-4", Models.Nsdp.make 4);
      ]
    else
      [
        ("rw-8", Models.Rw.make 8);
        ("rw-10", Models.Rw.make 10);
        ("over-4", Models.Over.make 4);
        ("over-5", Models.Over.make 5);
        ("nsdp-6", Models.Nsdp.make 6);
        ("asat-4", Models.Asat.make 4);
      ]
  in
  let reps = if smoke then 1 else 3 in
  let rows = ref [] in
  Format.printf "%-10s %-8s %6s %10s %10s %8s@." "net" "engine" "ratio"
    "plain" "reduced" "speedup";
  List.iter
    (fun (name, net) ->
      let red = Reduce.run net in
      let ratio = Reduce.ratio red in
      List.iter
        (fun kind ->
          let plain = ref infinity and reduced = ref infinity in
          let dl_plain = ref false and dl_red = ref false in
          for _ = 1 to reps do
            cold ();
            let o, t =
              time (fun () -> Harness.Engine.run ~gpo_scan:true kind net)
            in
            dl_plain := o.Harness.Engine.deadlock;
            plain := Float.min !plain t;
            cold ();
            let o, t =
              time (fun () ->
                  Harness.Engine.run ~gpo_scan:true ~reduce:true kind net)
            in
            dl_red := o.Harness.Engine.deadlock;
            reduced := Float.min !reduced t
          done;
          let speedup = !plain /. !reduced in
          Format.printf "%-10s %-8s %5.2fx %9.3fs %9.3fs %7.2fx@." name
            (Harness.Engine.name kind) ratio !plain !reduced speedup;
          rows :=
            J.Obj
              [
                ("net", J.String name);
                ("engine", J.String (Harness.Engine.name kind));
                ("ratio", J.Float ratio);
                ("places", J.Int net.Petri.Net.n_places);
                ("transitions", J.Int net.Petri.Net.n_transitions);
                ("reduced_places", J.Int red.Reduce.net.Petri.Net.n_places);
                ( "reduced_transitions",
                  J.Int red.Reduce.net.Petri.Net.n_transitions );
                ("deadlock_plain", J.Bool !dl_plain);
                ("deadlock_reduced", J.Bool !dl_red);
                ("plain_s", J.Float !plain);
                ("reduced_s", J.Float !reduced);
                ("speedup", J.Float speedup);
              ]
            :: !rows)
        Harness.Engine.all)
    nets;
  write_report "reduce"
    (J.Obj
       [
         ("table", J.String "reduce");
         ("smoke", J.Bool smoke);
         ("rows", J.List (List.rev !rows));
       ])

(* ------------------------------------------------------------------ *)

let () =
  let jobs =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ ->
        [ "table1"; "fig1"; "fig2"; "gpo"; "scaling"; "guard"; "reduce" ]
  in
  List.iter
    (function
      | "table1" -> table1 ()
      | "fig1" -> fig1 ()
      | "fig2" -> fig2 ()
      | "gpo" -> gpo_scaling ()
      | "scaling" -> scaling ()
      | "guard" -> guard_overhead ()
      | "reduce" -> reduce_bench ()
      | other ->
          Format.eprintf
            "unknown job %S (expected table1, fig1, fig2, gpo, scaling, \
             guard, reduce)@."
            other;
          exit 2)
    jobs
