(* Benchmark harness: regenerates every table and figure of the paper
   and times the verification kernels with Bechamel.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # Table 1 reproduction only
     dune exec bench/main.exe fig1       # Figure 1 series
     dune exec bench/main.exe fig2       # Figure 2 series
     dune exec bench/main.exe gpo        # GPO time against problem size
     dune exec bench/main.exe scaling    # GPO wave speedup + portfolio
     dune exec bench/main.exe guard      # resource-guard polling overhead
     dune exec bench/main.exe reduce     # structural reduction ratio/speedup
     dune exec bench/main.exe serve      # warm-state service latency
     dune exec bench/main.exe persist    # journal overhead + recovery
     dune exec bench/main.exe micro      # Bechamel micro-benchmarks *)

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
  let gpn_nets =
    if smoke then [ ("over-4", Models.Over.make 4) ]
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
(* Bechamel micro-benchmarks: one grouped test per Table 1 family and
   one per figure, timing the verification kernels.                    *)

let rec bechamel_tests () =
  let open Bechamel in
  let gpo name net =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Gpn.Explorer.analyse ~scan:false net)))
  in
  let po name net =
    Test.make ~name (Staged.stage (fun () -> ignore (Petri.Stubborn.explore net)))
  in
  let smv name net =
    Test.make ~name (Staged.stage (fun () -> ignore (Bddkit.Symbolic.analyse net)))
  in
  let full name net =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Petri.Reachability.explore net)))
  in
  [
    Test.make_grouped ~name:"table1-nsdp"
      [
        full "full-4" (Models.Nsdp.make 4);
        po "po-6" (Models.Nsdp.make 6);
        smv "smv-4" (Models.Nsdp.make 4);
        gpo "gpo-6" (Models.Nsdp.make 6);
        gpo "gpo-10" (Models.Nsdp.make 10);
      ];
    Test.make_grouped ~name:"table1-asat"
      [
        full "full-4" (Models.Asat.make 4);
        po "po-8" (Models.Asat.make 8);
        gpo "gpo-8" (Models.Asat.make 8);
      ];
    Test.make_grouped ~name:"table1-over"
      [
        full "full-4" (Models.Over.make 4);
        po "po-5" (Models.Over.make 5);
        gpo "gpo-5" (Models.Over.make 5);
      ];
    Test.make_grouped ~name:"table1-rw"
      [
        full "full-9" (Models.Rw.make 9);
        po "po-9" (Models.Rw.make 9);
        smv "smv-9" (Models.Rw.make 9);
        gpo "gpo-15" (Models.Rw.make 15);
      ];
    Test.make_grouped ~name:"fig2"
      [
        full "full-8" (Models.Figures.fig2 8);
        po "po-10" (Models.Figures.fig2 10);
        gpo "gpo-12" (Models.Figures.fig2 12);
      ];
    worldset_tests ();
  ]

(* World-set algebra over a pool of random worlds.  The numbers are
   steady-state: after the first iteration the memo caches hit, which
   is exactly the regime the explorer runs in (the same unions/
   intersections recur across states). *)
and worldset_tests () =
  let open Bechamel in
  let module B = Petri.Bitset in
  let module H = Gpn.World_set in
  let width = 24 in
  let st = Random.State.make [| 0x5eed |] in
  let random_world () =
    let w = ref (B.empty width) in
    for _ = 1 to 1 + Random.State.int st width do
      w := B.add (Random.State.int st width) !w
    done;
    !w
  in
  let pool_a = List.init 160 (fun _ -> random_world ()) in
  let pool_b = List.init 160 (fun _ -> random_world ()) in
  let ha = H.of_list pool_a and hb = H.of_list pool_b in
  let w0 = List.hd pool_a in
  (* The memoized operations finish in tens of nanoseconds — below the
     per-sample noise floor of the harness — so every job batches 1000
     calls per run (the reported ns/run is for the batch, comparable
     across jobs). *)
  let batched f =
    Staged.stage (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  Test.make_grouped ~name:"worldset-x1000"
    [
      Test.make ~name:"union-hashconsed" (batched (fun () -> H.union ha hb));
      Test.make ~name:"inter-hashconsed" (batched (fun () -> H.inter ha hb));
      Test.make ~name:"filter-member-hashconsed"
        (batched (fun () -> H.filter_member 3 ha));
      (* [add]/[remove] build a fresh, structurally-equal bit set each
         call, so this times the digest + weak-table lookup that every
         intern of an already-known world pays. *)
      Test.make ~name:"bitset-intern"
        (batched (fun () -> B.intern (B.remove 0 (B.add 0 w0))));
    ]

let micro () =
  section "Bechamel micro-benchmarks (monotonic clock, ns/run)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let rows =
    List.concat_map
      (fun test ->
        let results =
          Benchmark.all cfg instances test
          |> Analyze.all ols Toolkit.Instance.monotonic_clock
        in
        (* Hashtbl.iter order is hash order — sort by name so successive
           runs (and the JSON report) diff cleanly. *)
        Hashtbl.fold
          (fun name ols_result acc ->
            let est =
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> Some est
              | _ -> None
            in
            (name, est) :: acc)
          results []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
      (bechamel_tests ())
  in
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Format.printf "%-28s %12.0f ns/run@." name est
      | None -> Format.printf "%-28s (no estimate)@." name)
    rows;
  Format.printf "@.";
  let module J = Gpo_obs.Json in
  write_report "micro"
    (J.Obj
       [
         ("table", J.String "micro");
         ( "results",
           J.List
             (List.map
                (fun (name, est) ->
                  J.Obj
                    [
                      ("name", J.String name);
                      ( "ns_per_run",
                        match est with Some e -> J.Float e | None -> J.Null );
                    ])
                rows) );
       ])

(* ------------------------------------------------------------------ *)
(* Guard overhead: the deadline/memory poll sits in the hottest loop of
   the explicit engines, so its cost must stay in the noise.  Plain and
   guarded runs are interleaved (same rep sees the same cache/GC
   climate) and the best of each side is compared.                     *)

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
  Format.printf "%-10s %10s %10s %10s@." "net" "plain" "guarded" "overhead";
  List.iter
    (fun (name, net) ->
      let plain = ref infinity and guarded = ref infinity in
      for _ = 1 to reps do
        let r, t = time (fun () -> Petri.Reachability.explore ~max_states net) in
        let states = r.Petri.Reachability.states in
        plain := Float.min !plain t;
        let r, t =
          time (fun () ->
              (* Generous budgets: armed, polled, never tripping. *)
              let guard = Guard.create ~deadline_s:3600. ~mem_mb:65536 () in
              Petri.Reachability.explore ~max_states ~guard net)
        in
        assert (r.Petri.Reachability.states = states);
        guarded := Float.min !guarded t
      done;
      let overhead_pct = (!guarded -. !plain) /. !plain *. 100. in
      Format.printf "%-10s %9.3fs %9.3fs %9.2f%%@." name !plain !guarded
        overhead_pct;
      rows :=
        J.Obj
          [
            ("net", J.String name);
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
(* Verification service: what warm state buys.  For each family the
   same question is asked three times through the in-process scheduler
   (the daemon minus the socket):

     cold — empty result cache, cleared engine memo caches;
     warm — result cache invalidated, engine/interning tables warm;
     hit  — answered from the content-addressed result cache (the
            witness still replays through certification on every hit).

   The throughput series submits one batch of distinct jobs at pool
   sizes 1/2/4.  On a single-core host the jobs_per_s column measures
   scheduling overhead, not parallelism.                               *)

let serve_bench () =
  let module J = Gpo_obs.Json in
  let module P = Serve.Protocol in
  section "Serve — cold vs warm vs cache-hit latency, batch throughput";
  let own_sink = not (Gpo_obs.enabled ()) in
  if own_sink then Gpo_obs.install Gpo_obs.null_sink;
  Fun.protect ~finally:(fun () -> if own_sink then Gpo_obs.uninstall ())
  @@ fun () ->
  let families =
    if smoke then
      [ ("nsdp-4", "nsdp", 4); ("rw-6", "rw", 6); ("fig2-6", "fig2", 6) ]
    else
      [ ("nsdp-6", "nsdp", 6); ("rw-10", "rw", 10); ("fig2-10", "fig2", 10) ]
  in
  let reps = if smoke then 2 else 3 in
  let sched = Serve.Scheduler.create ~jobs:1 () in
  let submit_one id size =
    let job = P.job (P.Model { id; size }) in
    match Serve.Scheduler.submit sched [ job ] with
    | P.Results [ r ] -> r
    | _ -> failwith "serve bench: unexpected scheduler reply"
  in
  let timed_submit id size =
    let r, t = time (fun () -> submit_one id size) in
    (match r.P.status with
    | P.Ok -> ()
    | P.Failed msg -> failwith ("serve bench: " ^ msg));
    (r, t)
  in
  Format.printf "%-10s %10s %10s %10s %9s@." "net" "cold" "warm" "hit"
    "cold/hit";
  let rows = ref [] in
  List.iter
    (fun (name, id, size) ->
      (* Cold: nothing cached, engine memo tables dropped. *)
      Harness.Result_cache.invalidate ();
      Gpn.World_set.clear_caches ();
      let r, cold = timed_submit id size in
      assert (not r.P.cached);
      (* Warm: the result cache is emptied but the interned universe and
         memo caches keep everything the cold run built. *)
      let warm = ref infinity in
      for _ = 1 to reps do
        Harness.Result_cache.invalidate ();
        let r, t = timed_submit id size in
        assert (not r.P.cached);
        warm := Float.min !warm t
      done;
      (* Hit: same question again — answered from the result cache after
         its witness re-certifies by replay. *)
      let hit = ref infinity in
      for _ = 1 to reps do
        let r, t = timed_submit id size in
        assert r.P.cached;
        hit := Float.min !hit t
      done;
      Format.printf "%-10s %9.4fs %9.4fs %9.4fs %8.0fx@." name cold !warm !hit
        (cold /. !hit);
      rows :=
        J.Obj
          [
            ("net", J.String name);
            ("engine", J.String "gpo");
            ("cold_s", J.Float cold);
            ("warm_s", J.Float !warm);
            ("hit_s", J.Float !hit);
          ]
        :: !rows)
    families;
  Serve.Scheduler.shutdown sched;
  (* Throughput: one batch of distinct questions per pool size.  The
     result cache is emptied before every submission so each batch does
     real verification work. *)
  section "Serve — batch throughput at pool sizes 1/2/4";
  let batch =
    let sizes = if smoke then [ 4; 5; 6; 7 ] else [ 6; 7; 8; 9; 10; 11 ] in
    List.map (fun n -> P.job (P.Model { id = "fig2"; size = n })) sizes
  in
  let batch_n = List.length batch in
  Format.printf "%-8s %6s %10s %10s@." "batch" "pool" "time" "jobs/s";
  let tp_rows = ref [] in
  List.iter
    (fun pool_jobs ->
      let sched = Serve.Scheduler.create ~jobs:pool_jobs () in
      (* Warm-up round so every pool size starts from the same warm
         interned universe. *)
      Harness.Result_cache.invalidate ();
      (match Serve.Scheduler.submit sched batch with
      | P.Results _ -> ()
      | _ -> failwith "serve bench: warm-up rejected");
      let best = ref infinity in
      for _ = 1 to reps do
        Harness.Result_cache.invalidate ();
        let resp, t = time (fun () -> Serve.Scheduler.submit sched batch) in
        (match resp with
        | P.Results _ -> ()
        | _ -> failwith "serve bench: batch rejected");
        best := Float.min !best t
      done;
      Serve.Scheduler.shutdown sched;
      let jobs_per_s = float_of_int batch_n /. !best in
      Format.printf "%-8d %6d %9.3fs %9.1f@." batch_n pool_jobs !best
        jobs_per_s;
      tp_rows :=
        J.Obj
          [
            ("batch", J.Int batch_n);
            ("jobs", J.Int pool_jobs);
            ("time_s", J.Float !best);
            ("jobs_per_s", J.Float jobs_per_s);
          ]
        :: !tp_rows)
    [ 1; 2; 4 ];
  write_report "serve"
    (J.Obj
       [
         ("table", J.String "serve");
         ("cores", J.Int (Domain.recommended_domain_count ()));
         ("smoke", J.Bool smoke);
         ("latency", J.List (List.rev !rows));
         ("throughput", J.List (List.rev !tp_rows));
       ])

(* ------------------------------------------------------------------ *)
(* Persistence: what the crash-safe journal costs.  [mem_store_s] is
   the per-store cost of the in-memory cache alone; [journal_store_s]
   adds the checksummed append (with a channel flush) that makes the
   entry survive kill -9; [recovery_s] is the cold-start price — read
   a dup-heavy journal, re-certify every admitted witness by replay,
   and compact the file down to the live set.                          *)

let persist_bench () =
  let module J = Gpo_obs.Json in
  section "Persist — journal append overhead per store, cold-start recovery";
  let own_sink = not (Gpo_obs.enabled ()) in
  if own_sink then Gpo_obs.install Gpo_obs.null_sink;
  Fun.protect ~finally:(fun () -> if own_sink then Gpo_obs.uninstall ())
  @@ fun () ->
  let sizes = if smoke then [ 3; 4; 5; 6 ] else [ 4; 5; 6; 7; 8; 9; 10; 11 ] in
  let rounds = if smoke then 3 else 8 in
  let entries =
    List.map
      (fun n ->
        let net = Models.Figures.fig2 n in
        let text = Petri.Parser.to_string net in
        let o =
          Harness.Engine.run ~witness:true ~gpo_scan:true Harness.Engine.Gpo net
        in
        assert (o.Harness.Engine.stop = Guard.Completed);
        let k =
          Harness.Result_cache.key
            ~digest:(Petri.Net.digest net)
            ~engine:"gpo" ~max_states:1_000_000 ~witness:true ~gpo_scan:true
            ~reduce:false ()
        in
        (k, text, o))
      sizes
  in
  let n = List.length entries in
  (* A single store is sub-microsecond in memory — batch [inner]
     passes per timed round so the clock resolves both sides. *)
  let inner = if smoke then 20 else 50 in
  let store_all () =
    for _ = 1 to inner do
      (* Invalidate first so every store is a real store, not a no-op
         on an already-filled table. *)
      Harness.Result_cache.invalidate ();
      List.iter
        (fun (k, text, o) ->
          ignore (Harness.Result_cache.store ~net_text:text k o : bool))
        entries
    done
  in
  Harness.Result_cache.detach ();
  let mem = ref infinity in
  for _ = 1 to rounds do
    let (), t = time store_all in
    mem := Float.min !mem t
  done;
  (* Journaled: the same stores with the append on the hot path.  The
     rounds leave a dup-heavy journal behind — the file shape a
     long-lived daemon accumulates — which then feeds the recovery
     measurement. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "julie-bench-persist-%d" (Unix.getpid ()))
  in
  (match Harness.Result_cache.attach dir with
  | Ok _ -> ()
  | Error msg -> failwith ("persist bench: " ^ msg));
  let jn = ref infinity in
  for _ = 1 to rounds do
    let (), t = time store_all in
    jn := Float.min !jn t
  done;
  Harness.Result_cache.flush_journal ();
  let journal_path = Filename.concat dir "results.journal" in
  let journal_bytes = (Unix.stat journal_path).Unix.st_size in
  Harness.Result_cache.detach ();
  (* Cold start: recover the dup-heavy journal into an empty cache.
     Every admitted record re-parses its net, checks its digest and
     replays its witness through certification; duplicates resolve
     last-writer-wins and trigger the compaction rewrite. *)
  Harness.Result_cache.invalidate ();
  let recovery, recovery_s =
    time (fun () ->
        match Harness.Result_cache.attach dir with
        | Ok r -> r
        | Error msg -> failwith ("persist bench: " ^ msg))
  in
  Harness.Result_cache.detach ();
  Harness.Result_cache.invalidate ();
  (try Sys.remove journal_path with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let mem_store_s = !mem /. float_of_int (inner * n) in
  let journal_store_s = !jn /. float_of_int (inner * n) in
  let overhead_pct = (journal_store_s -. mem_store_s) /. mem_store_s *. 100. in
  Format.printf "%-8s %13s %15s %10s@." "entries" "mem-store" "journal-store"
    "overhead";
  Format.printf "%-8d %11.2fus %13.2fus %9.0f%%@.@." n (mem_store_s *. 1e6)
    (journal_store_s *. 1e6) overhead_pct;
  Format.printf
    "cold-start recovery: %d entr%s admitted (%d rejected) from a %d-byte@.\
     journal of %d records in %.4fs%s@."
    recovery.Harness.Result_cache.recovered
    (if recovery.Harness.Result_cache.recovered = 1 then "y" else "ies")
    recovery.Harness.Result_cache.rejected journal_bytes
    ((rounds * inner * n) + 1)
    recovery_s
    (if recovery.Harness.Result_cache.compacted then " (compacted)" else "");
  write_report "persist"
    (J.Obj
       [
         ("table", J.String "persist");
         ("smoke", J.Bool smoke);
         ("journal_bytes", J.Int journal_bytes);
         ("recovered", J.Int recovery.Harness.Result_cache.recovered);
         ("rejected", J.Int recovery.Harness.Result_cache.rejected);
         ( "rows",
           J.List
             [
               J.Obj
                 [
                   ("entries", J.Int n);
                   ("rounds", J.Int rounds);
                   ("mem_store_s", J.Float mem_store_s);
                   ("journal_store_s", J.Float journal_store_s);
                   ("recovery_s", J.Float recovery_s);
                 ];
             ] );
       ])

(* ------------------------------------------------------------------ *)

let () =
  let jobs =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ ->
        [
          "table1"; "fig1"; "fig2"; "gpo"; "scaling"; "guard"; "reduce";
          "serve"; "persist"; "micro";
        ]
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
      | "serve" -> serve_bench ()
      | "persist" -> persist_bench ()
      | "micro" -> micro ()
      | other ->
          Format.eprintf
            "unknown job %S (expected table1, fig1, fig2, gpo, scaling, \
             guard, reduce, serve, persist, micro)@."
            other;
          exit 2)
    jobs
