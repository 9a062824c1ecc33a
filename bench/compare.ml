(* Bench regression gate: diff two BENCH_*.json reports.

   A report is a JSON object whose list-of-object fields ("rows",
   "exploration", "portfolio", "series", …) hold the measurements.
   Within a row, a known set of metric fields carries the numbers to
   compare; every other scalar field (net name, size, jobs, state
   counts, …) is identity — rows are matched across the two reports by
   section plus identity, so reordering is harmless and a row that
   appears or disappears is reported as unmatched rather than silently
   ignored.

   Each metric class has its own noise model, because raw wall-clock
   comparisons at machine-scheduling granularity are mostly noise:

   - time-like metrics (time_s, plain_s, …; lower is better) regress
     when the fresh value exceeds base * (1 + threshold) AND the
     absolute growth clears a small floor (tiny denominators otherwise
     turn scheduler jitter into 2x "regressions");
   - speedup (higher is better) regresses on the mirrored ratio test;
   - overhead_pct (an already-relative percentage) regresses on
     absolute growth in percentage points.

   Improvements are detected with the same tests mirrored, so a diff
   can also celebrate. *)

module J = Gpo_obs.Json

type direction = Lower_better | Higher_better

type metric_class = {
  dir : direction;
  abs_floor : float;
      (* minimum absolute change before the ratio test applies *)
  absolute : bool;
      (* compare by absolute delta (percentage-point metrics) instead
         of by ratio *)
}

let time_like = { dir = Lower_better; abs_floor = 5e-3; absolute = false }

let metric_table =
  [
    ("time_s", time_like);
    ("plain_s", time_like);
    ("reduced_s", time_like);
    ("guarded_s", time_like);
    ("portfolio_time_s", time_like);
    ("best_single_time_s", time_like);
    ("gpo_time", time_like);
    ("spin_time", time_like);
    ("smv_time", time_like);
    ("overhead_pct", { dir = Lower_better; abs_floor = 0.0; absolute = true });
    ("speedup", { dir = Higher_better; abs_floor = 0.05; absolute = false });
  ]

let metric_class name = List.assoc_opt name metric_table

type verdict = {
  row : string;  (** section + rendered identity, e.g.
                     ["exploration net=nsdp-7 jobs=2"] *)
  metric : string;
  base : float;
  fresh : float;
  delta_pct : float;  (** signed percentage change, fresh vs base *)
}

type outcome = {
  compared : int;  (** metric values matched and checked *)
  regressions : verdict list;
  improvements : verdict list;
  unmatched_base : string list;  (** rows only in the baseline *)
  unmatched_fresh : string list;  (** rows only in the fresh run *)
}

let ok outcome = outcome.regressions = []

(* ------------------------------------------------------------------ *)
(* Row extraction                                                      *)

let float_of = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

let identity_part (k, v) =
  match v with
  | _ when metric_class k <> None -> None
  | J.String s -> Some (Printf.sprintf "%s=%s" k s)
  | J.Bool b -> Some (Printf.sprintf "%s=%b" k b)
  | J.Int i -> Some (Printf.sprintf "%s=%d" k i)
  | J.Float f -> Some (Printf.sprintf "%s=%g" k f)
  | J.Null | J.List _ | J.Obj _ -> None

type row = {
  key : string;  (** section + identity fields *)
  metrics : (string * float) list;
}

let row_of_obj section fields =
  let identity = List.filter_map identity_part fields in
  let metrics =
    List.filter_map
      (fun (k, v) ->
        match (metric_class k, float_of v) with
        | Some _, Some f when Float.is_finite f -> Some (k, f)
        | _ -> None)
      fields
  in
  { key = String.concat " " (section :: identity); metrics }

(* All measurement rows of a report: every top-level field holding a
   list of objects is a section ("meta" and scalar header fields fall
   through naturally). *)
let rows_of_report json =
  match json with
  | J.Obj top ->
      List.concat_map
        (fun (section, v) ->
          match v with
          | J.List items ->
              List.filter_map
                (function
                  | J.Obj fields -> Some (row_of_obj section fields)
                  | _ -> None)
                items
          | _ -> [])
        top
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let delta_pct ~base ~fresh =
  if base = 0.0 then if fresh = 0.0 then 0.0 else Float.infinity
  else (fresh -. base) /. Float.abs base *. 100.0

(* [judge] returns [Some true] for a regression, [Some false] for an
   improvement, [None] for noise-level change. *)
let judge cls ~threshold ~base ~fresh =
  let worse, better =
    match cls.dir with
    | Lower_better -> (fresh -. base, base -. fresh)
    | Higher_better -> (base -. fresh, fresh -. base)
  in
  if cls.absolute then
    (* Percentage-point metrics: threshold is read as points * 10, so
       the default 0.3 tolerates a 3-point swing. *)
    let slack = threshold *. 10.0 in
    if worse > slack then Some true
    else if better > slack then Some false
    else None
  else
    let magnitude = Float.min (Float.abs base) (Float.abs fresh) in
    let significant d = d > cls.abs_floor && d > magnitude *. threshold in
    if significant worse then Some true
    else if significant better then Some false
    else None

let default_threshold = 0.30

let compare_reports ?(threshold = default_threshold) ~base ~fresh () =
  let base_rows = rows_of_report base and fresh_rows = rows_of_report fresh in
  let fresh_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace fresh_tbl r.key r) fresh_rows;
  let matched_fresh = Hashtbl.create 64 in
  let compared = ref 0 in
  let regressions = ref [] and improvements = ref [] in
  let unmatched_base = ref [] in
  List.iter
    (fun b ->
      match Hashtbl.find_opt fresh_tbl b.key with
      | None -> unmatched_base := b.key :: !unmatched_base
      | Some f ->
          Hashtbl.replace matched_fresh b.key ();
          List.iter
            (fun (metric, bv) ->
              match List.assoc_opt metric f.metrics with
              | None -> ()
              | Some fv -> (
                  incr compared;
                  let cls = Option.get (metric_class metric) in
                  let v =
                    {
                      row = b.key;
                      metric;
                      base = bv;
                      fresh = fv;
                      delta_pct = delta_pct ~base:bv ~fresh:fv;
                    }
                  in
                  match judge cls ~threshold ~base:bv ~fresh:fv with
                  | Some true -> regressions := v :: !regressions
                  | Some false -> improvements := v :: !improvements
                  | None -> ()))
            b.metrics)
    base_rows;
  let unmatched_fresh =
    List.filter_map
      (fun r ->
        if Hashtbl.mem matched_fresh r.key then None else Some r.key)
      fresh_rows
  in
  {
    compared = !compared;
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
    unmatched_base = List.rev !unmatched_base;
    unmatched_fresh;
  }

(* ------------------------------------------------------------------ *)
(* Files and rendering                                                 *)

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match J.of_string (String.trim text) with
      | Ok j -> Ok j
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let compare_files ?threshold ~base ~fresh () =
  match (read_json base, read_json fresh) with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok b, Ok f -> Ok (compare_reports ?threshold ~base:b ~fresh:f ())

let pp_verdict ppf v =
  Format.fprintf ppf "%s: %s %g -> %g (%+.1f%%)" v.row v.metric v.base v.fresh
    v.delta_pct

let pp_outcome ppf o =
  Format.fprintf ppf "compared %d metric value%s@," o.compared
    (if o.compared = 1 then "" else "s");
  List.iter (fun v -> Format.fprintf ppf "REGRESSION  %a@," pp_verdict v)
    o.regressions;
  List.iter (fun v -> Format.fprintf ppf "improvement %a@," pp_verdict v)
    o.improvements;
  List.iter
    (fun k -> Format.fprintf ppf "baseline-only row: %s@," k)
    o.unmatched_base;
  List.iter
    (fun k -> Format.fprintf ppf "fresh-only row: %s@," k)
    o.unmatched_fresh;
  if o.regressions = [] then Format.fprintf ppf "no regressions@,"
  else
    Format.fprintf ppf "%d regression%s@,"
      (List.length o.regressions)
      (if List.length o.regressions = 1 then "" else "s")
