type paper_row = {
  full_states : float;
  spin_states : float;
  spin_time : float;
  smv_peak : float option;
  smv_time : float option;
  gpo_states : float;
  gpo_time : float;
}

type family = {
  id : string;
  description : string;
  make : int -> Petri.Net.t;
  expect_deadlock : bool;
  rows : (int * paper_row) list;
}

let row full_states spin_states spin_time smv gpo_states gpo_time =
  let smv_peak, smv_time =
    match smv with
    | Some (peak, time) -> (Some peak, Some time)
    | None -> (None, None)
  in
  { full_states; spin_states; spin_time; smv_peak; smv_time; gpo_states; gpo_time }

let families =
  [
    {
      id = "NSDP";
      description = "non-serialized dining philosophers";
      make = Models.Nsdp.make;
      expect_deadlock = true;
      rows =
        [
          (2, row 18. 12. 0.08 (Some (1068., 0.04)) 3. 0.01);
          (4, row 322. 110. 0.13 (Some (10018., 0.22)) 3. 0.03);
          (6, row 5778. 1422. 1.07 (Some (52320., 8.97)) 3. 0.04);
          (8, row 103682. 19270. 25.62 (Some (687263., 1169.30)) 3. 0.05);
          (10, row 1.86e6 239308. 453.16 None 3. 0.06);
        ];
    };
    {
      id = "ASAT";
      description = "asynchronous arbiter tree";
      make = Models.Asat.make;
      expect_deadlock = false;
      rows =
        [
          (2, row 88. 33. 0.08 (Some (1587., 0.05)) 8. 0.01);
          (4, row 7822. 192. 0.11 (Some (117667., 79.61)) 14. 0.06);
          (8, row 1.58e6 3598. 1.12 None 23. 0.35);
        ];
    };
    {
      id = "OVER";
      description = "overtake protocol";
      make = Models.Over.make;
      expect_deadlock = false;
      rows =
        [
          (2, row 65. 28. 0.09 (Some (3511., 0.08)) 6. 0.01);
          (3, row 519. 107. 0.13 (Some (10203., 0.19)) 7. 0.02);
          (4, row 4175. 467. 0.44 (Some (11759., 0.64)) 8. 0.04);
          (5, row 33460. 2059. 2.05 (Some (24860., 3.59)) 9. 0.06);
        ];
    };
    {
      id = "RW";
      description = "readers and writers";
      make = Models.Rw.make;
      expect_deadlock = false;
      rows =
        [
          (6, row 72. 72. 0.06 (Some (3689., 0.09)) 2. 0.05);
          (9, row 523. 523. 1.51 (Some (9886., 0.16)) 2. 0.20);
          (12, row 4110. 4110. 16.89 (Some (10037., 0.28)) 2. 0.61);
          (15, row 29642. 29642. 194.33 (Some (10267., 0.43)) 2. 1.50);
        ];
    };
  ]

let family id =
  let id = String.uppercase_ascii id in
  match List.find_opt (fun f -> String.equal f.id id) families with
  | Some f -> f
  | None -> raise Not_found

type measurement = {
  family_id : string;
  size : int;
  paper : paper_row;
  outcomes : Engine.outcome list;
}

let skipped kind =
  {
    Engine.kind;
    states = 0.;
    metric = 0.;
    deadlock = false;
    time_s = 0.;
    stop = Guard.Deadline;
    witness = None;
  }

(* Per-family wall-clock bookkeeping for the engines whose cost explodes
   with instance size (the paper's ">24 hours" cells): (total spent,
   time of the last completed instance).  An instance is skipped when
   the time already spent, plus a pessimistic extrapolation of the last
   run, exceeds the budget. *)
let budget_state : (string * string, float * float) Hashtbl.t = Hashtbl.create 16

let budgeted ~engine ~family ~budget ~growth run =
  let key = (engine, family) in
  let spent, last = try Hashtbl.find budget_state key with Not_found -> (0., 0.) in
  if spent +. (last *. growth) > budget then None
  else begin
    let outcome : Engine.outcome = run () in
    Hashtbl.replace budget_state key (spent +. outcome.time_s, outcome.time_s);
    Some outcome
  end

let measure ?(engines = Engine.all) ?max_states ?(full_budget = infinity) fam size =
  let net = fam.make size in
  let paper =
    match List.assoc_opt size fam.rows with
    | Some p -> p
    | None ->
        row nan nan nan None nan nan
  in
  let run kind =
    (* Table 1 reproduces the paper's GPO procedure: no deviation scan. *)
    let go () = Engine.run ?max_states ~gpo_scan:false kind net in
    let budgeted_run ~budget ~growth =
      match
        budgeted ~engine:(Engine.name kind) ~family:fam.id ~budget ~growth go
      with
      | Some outcome -> outcome
      | None -> skipped kind
    in
    match kind with
    | Engine.Full -> budgeted_run ~budget:full_budget ~growth:25.
    | Engine.Symbolic -> budgeted_run ~budget:(full_budget /. 2.) ~growth:20.
    | Engine.Stubborn | Engine.Gpo -> go ()
  in
  { family_id = fam.id; size; paper; outcomes = List.map run engines }

let table1 ?engines ?max_states ?(full_budget = 60.) ?sizes () =
  Hashtbl.reset budget_state;
  List.concat_map
    (fun fam ->
      let instance_sizes =
        match Option.bind sizes (List.assoc_opt fam.id) with
        | Some s -> s
        | None -> List.map fst fam.rows
      in
      List.map
        (fun size -> measure ?engines ?max_states ~full_budget fam size)
        instance_sizes)
    families

let outcome_of kind m = List.find_opt (fun o -> o.Engine.kind = kind) m.outcomes

let pp_float ppf v =
  if Float.is_nan v then Format.fprintf ppf "-"
  else if v >= 1e6 then Format.fprintf ppf "%.2e" v
  else Format.fprintf ppf "%.0f" v

let pp_opt ppf = function
  | None -> Format.fprintf ppf ">24h"
  | Some v -> pp_float ppf v

let pp_table1 ppf measurements =
  Format.fprintf ppf
    "@[<v>Table 1 — deadlock analysis (paper values in parentheses)@ @ \
     %-10s| %-19s| %-22s| %-26s| %-22s@ %s@ "
    "Problem" "States" "SPIN+PO st (time s)" "SMV peak BDD (time s)"
    "GPO st (time s)"
    (String.make 105 '-');
  List.iter
    (fun m ->
      let cell kind metric_paper time_paper =
        match outcome_of kind m with
        | None -> Format.asprintf "%-22s" "-"
        | Some o ->
            let measured =
              if Engine.truncated o then "skip"
              else Format.asprintf "%a/%.2f" pp_float o.Engine.metric o.Engine.time_s
            in
            Format.asprintf "%s (%s)" measured
              (Format.asprintf "%a/%s" pp_opt metric_paper
                 (match time_paper with
                 | None -> "-"
                 | Some t -> Format.asprintf "%.2f" t))
      in
      let full_cell =
        match outcome_of Engine.Full m with
        | None -> "-"
        | Some o ->
            Format.asprintf "%s (%a)"
              (if Engine.truncated o then "skip" else Format.asprintf "%a" pp_float o.Engine.metric)
              pp_float m.paper.full_states
      in
      Format.fprintf ppf "%-10s| %-19s| %-22s| %-26s| %-22s@ "
        (Printf.sprintf "%s(%d)" m.family_id m.size)
        full_cell
        (cell Engine.Stubborn (Some m.paper.spin_states) (Some m.paper.spin_time))
        (cell Engine.Symbolic m.paper.smv_peak m.paper.smv_time)
        (cell Engine.Gpo (Some m.paper.gpo_states) (Some m.paper.gpo_time)))
    measurements;
  Format.fprintf ppf "@]"

let fig1_series () =
  let net = Models.Figures.fig1 in
  let full = Petri.Reachability.explore net in
  let po = Petri.Stubborn.explore net in
  let gpo = Gpn.Explorer.analyse net in
  (* Count the maximal interleavings (paths through the full graph). *)
  let interleavings =
    let module T = Petri.Reachability.Marking_table in
    let memo = T.create 16 in
    let rec paths m =
      match T.find_opt memo m with
      | Some n -> n
      | None ->
          let successors = Petri.Semantics.successors net m in
          let n =
            if successors = [] then 1
            else List.fold_left (fun acc (_, m') -> acc + paths m') 0 successors
          in
          T.add memo m n;
          n
    in
    paths net.Petri.Net.initial
  in
  [
    ("full reachability graph states (Fig 1b)", full.states);
    ("maximal interleavings (3!)", interleavings);
    ("partial-order path states", po.states);
    ("GPO states", gpo.Gpn.Explorer.states);
  ]

let fig2_series ?(max_n = 12) () =
  List.init max_n (fun i ->
      let n = i + 1 in
      let net = Models.Figures.fig2 n in
      let full =
        if n <= 12 then
          float_of_int (Petri.Reachability.explore ~max_states:2_000_000 net).states
        else Float.nan
      in
      let po = float_of_int (Petri.Stubborn.explore net).states in
      let gpo = float_of_int (Gpn.Explorer.analyse net).states in
      (n, full, po, gpo))

let pp_fig2 ppf series =
  Format.fprintf ppf
    "@[<v>Figure 2 — N concurrent conflict pairs@ %-4s %-12s %-14s %-6s@ %s@ "
    "N" "full (3^N)" "PO (2^(N+1)-1)" "GPO"
    (String.make 40 '-');
  List.iter
    (fun (n, full, po, gpo) ->
      let str v = Format.asprintf "%a" pp_float v in
      Format.fprintf ppf "%-4d %-12s %-14s %-6s@ " n (str full) (str po) (str gpo))
    series;
  Format.fprintf ppf "@]"
