module Net = Petri.Net
module Bitset = Petri.Bitset
module Invariant = Petri.Invariant
module Counter = Gpo_obs.Counter
module Gauge = Gpo_obs.Gauge
module Span = Gpo_obs.Span

type rule =
  | Dead_transition
  | Unread_place
  | Constant_place
  | Duplicate_place
  | Duplicate_transition
  | Agglomeration

let all_rules =
  [
    Dead_transition;
    Duplicate_transition;
    Unread_place;
    Constant_place;
    Duplicate_place;
    Agglomeration;
  ]

let rule_name = function
  | Dead_transition -> "dead_transition"
  | Unread_place -> "unread_place"
  | Constant_place -> "constant_place"
  | Duplicate_place -> "duplicate_place"
  | Duplicate_transition -> "duplicate_transition"
  | Agglomeration -> "agglomeration"

type t = {
  original : Net.t;
  net : Net.t;
  rounds : int;
  applied : (rule * int) list;
  expansions : int array array;
  degraded : bool;
}

let rule_counters =
  List.map (fun r -> (r, Counter.make ("reduce.rule." ^ rule_name r))) all_rules

let counter_of r = List.assq r rule_counters
let c_runs = Counter.make "reduce.runs"
let c_degraded = Counter.make "reduce.degraded"
let g_ratio = Gauge.make "reduce.ratio"
let fault_site = "reduce.rule"
let max_rounds = 64

(* Intermediate pipeline state: the current net plus the composed witness
   expansion of each of its transitions back to the original. *)
type state = { snet : Net.t; exp : int array array }

let initial_state (net : Net.t) =
  { snet = net; exp = Array.init net.n_transitions (fun t -> [| t |]) }

(* Rebuild the net keeping only the masked places/transitions; surviving
   arcs are renumbered, arcs to removed places vanish.  The expansions
   of removed transitions are dropped with them. *)
let filter_state st ~keep_place ~keep_trans =
  let net = st.snet in
  let pmap = Array.make net.n_places (-1) in
  let np' = ref 0 in
  for p = 0 to net.n_places - 1 do
    if keep_place.(p) then (
      pmap.(p) <- !np';
      incr np')
  done;
  let kept_ts = ref [] in
  for t = net.n_transitions - 1 downto 0 do
    if keep_trans.(t) then kept_ts := t :: !kept_ts
  done;
  let kept_ts = Array.of_list !kept_ts in
  let remap ps =
    Array.of_list
      (Array.to_list ps
      |> List.filter_map (fun p -> if keep_place.(p) then Some pmap.(p) else None))
  in
  let arcs =
    Array.mapi
      (fun i t -> (i, remap net.pre_list.(t), remap net.post_list.(t)))
      kept_ts
  in
  let keep_idx mask a =
    let out = ref [] in
    for i = Array.length a - 1 downto 0 do
      if mask.(i) then out := a.(i) :: !out
    done;
    Array.of_list !out
  in
  let snet =
    Net.make ~name:net.name
      ~place_names:(keep_idx keep_place net.place_names)
      ~transition_names:(Array.map (fun t -> net.transition_names.(t)) kept_ts)
      ~arcs
      ~initial:
        (Bitset.elements net.initial
        |> List.filter_map (fun p -> if keep_place.(p) then Some pmap.(p) else None))
  in
  { snet; exp = Array.map (fun t -> st.exp.(t)) kept_ts }

(* Defensive floor: engines expect non-degenerate nets, so a pass never
   erases the last place or transition — it leaves one candidate alone
   instead (keeping a dead transition or an unread place is always
   sound, just less reduction). *)
let spare_one mask removable =
  if removable > 0 && removable = Array.length mask then (
    let rec first i = if mask.(i) then i else first (i + 1) in
    mask.(first 0) <- false;
    removable - 1)
  else removable

(* --- Dead transitions ------------------------------------------------- *)

(* [t] is structurally dead when (a) some input place has no producers and
   starts empty, or (b) a non-negative P-semiflow [y] proves
   [y·pre(t) > y·m0]: in set semantics firing only moves or absorbs
   tokens, so [y·m <= y·m0] along every run and [t] never enables.
   The semiflow criterion is the expensive half (Farkas enumeration), so
   it only runs on the first fixpoint round — any subset of the dead
   transitions is a sound pass, and later rounds keep the cheap
   producerless criterion. *)
let dead_transition_pass ~first_round st =
  let net = st.snet in
  let unmarkable p =
    Array.length net.producers.(p) = 0 && not (Bitset.mem p net.initial)
  in
  let flows =
    if (not first_round) || net.n_places > 200 then []
    else
      match Invariant.p_semiflows ~max_count:128 net with
      | ys -> ys
      | exception Failure _ -> []
  in
  let flows =
    List.map (fun y -> (y, Invariant.invariant_value net y net.initial)) flows
  in
  let dead = Array.make net.n_transitions false in
  let n = ref 0 in
  for t = 0 to net.n_transitions - 1 do
    if
      Array.exists unmarkable net.pre_list.(t)
      || List.exists
           (fun (y, bound) -> Invariant.invariant_value net y net.pre.(t) > bound)
           flows
    then (
      dead.(t) <- true;
      incr n)
  done;
  let n = spare_one dead !n in
  if n = 0 then (st, 0)
  else
    ( filter_state st
        ~keep_place:(Array.make net.n_places true)
        ~keep_trans:(Array.map not dead),
      n )

(* --- Duplicate transitions -------------------------------------------- *)

let duplicate_transition_pass st =
  let net = st.snet in
  let seen = Hashtbl.create net.n_transitions in
  let drop = Array.make net.n_transitions false in
  let n = ref 0 in
  for t = 0 to net.n_transitions - 1 do
    let key = (Bitset.elements net.pre.(t), Bitset.elements net.post.(t)) in
    if Hashtbl.mem seen key then (
      drop.(t) <- true;
      incr n)
    else Hashtbl.add seen key ()
  done;
  if !n = 0 then (st, 0)
  else
    ( filter_state st
        ~keep_place:(Array.make net.n_places true)
        ~keep_trans:(Array.map not drop),
      !n )

(* --- Unread places ----------------------------------------------------- *)

let unread_place_pass st =
  let net = st.snet in
  let drop = Array.make net.n_places false in
  let n = ref 0 in
  for p = 0 to net.n_places - 1 do
    if Array.length net.consumers.(p) = 0 then (
      drop.(p) <- true;
      incr n)
  done;
  let n = spare_one drop !n in
  if n = 0 then (st, 0)
  else
    ( filter_state st ~keep_place:(Array.map not drop)
        ~keep_trans:(Array.make net.n_transitions true),
      n )

(* --- Constant places --------------------------------------------------- *)

(* [p] starts marked and every consumer returns it, so in set semantics it
   stays marked forever and constrains nothing: erase it from every
   pre/postset (filter_state drops the arcs with the place). *)
let constant_place_pass st =
  let net = st.snet in
  let drop = Array.make net.n_places false in
  let n = ref 0 in
  for p = 0 to net.n_places - 1 do
    if
      Bitset.mem p net.initial
      && Array.length net.consumers.(p) > 0
      && Array.for_all (fun t -> Bitset.mem p net.post.(t)) net.consumers.(p)
    then (
      drop.(p) <- true;
      incr n)
  done;
  let n = spare_one drop !n in
  if n = 0 then (st, 0)
  else
    ( filter_state st ~keep_place:(Array.map not drop)
        ~keep_trans:(Array.make net.n_transitions true),
      n )

(* --- Duplicate places -------------------------------------------------- *)

let duplicate_place_pass st =
  let net = st.snet in
  let seen = Hashtbl.create net.n_places in
  let drop = Array.make net.n_places false in
  let n = ref 0 in
  for p = 0 to net.n_places - 1 do
    let key =
      ( Bitset.mem p net.initial,
        Array.to_list net.consumers.(p),
        Array.to_list net.producers.(p) )
    in
    if Hashtbl.mem seen key then (
      drop.(p) <- true;
      incr n)
    else Hashtbl.add seen key ()
  done;
  if !n = 0 then (st, 0)
  else
    ( filter_state st ~keep_place:(Array.map not drop)
        ~keep_trans:(Array.make net.n_transitions true),
      !n )

(* --- Agglomeration ----------------------------------------------------- *)

let fresh_name taken base =
  if not (Hashtbl.mem taken base) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s~%d" base i in
      if Hashtbl.mem taken candidate then go (i + 1) else candidate
    in
    go 2

(* Post-agglomeration of a serial chain: [p] empty initially, consumed
   only by [b] with [•b = {p}], produced by [H] (with [b ∉ H]).  Each
   [a ∈ H] fuses with [b] into [a+b] with [•(a+b) = •a] and
   [(a+b)• = (a• ∖ {p}) ∪ b•]; [p], [b] and [H] disappear.  Note
   [p ∉ •a] (else [a ∈ consumers(p) = {b}]) and [p ∉ b•] (else
   [b ∈ H]), so the fused arcs need no further cleanup.  The witness
   expansion of [a+b] is [exp(a) @ exp(b)] — firing [a] immediately
   followed by [b] is the original run the fused step stands for. *)
let apply_agglomeration st p =
  let net = st.snet in
  let b = net.consumers.(p).(0) in
  let h = net.producers.(p) in
  let removed_t = Array.make net.n_transitions false in
  removed_t.(b) <- true;
  Array.iter (fun a -> removed_t.(a) <- true) h;
  let pmap = Array.make net.n_places (-1) in
  let np' = ref 0 in
  for q = 0 to net.n_places - 1 do
    if q <> p then (
      pmap.(q) <- !np';
      incr np')
  done;
  let kept_ts = ref [] in
  for t = net.n_transitions - 1 downto 0 do
    if not removed_t.(t) then kept_ts := t :: !kept_ts
  done;
  let kept_ts = Array.of_list !kept_ts in
  let remap ps =
    Array.of_list
      (Array.to_list ps
      |> List.filter_map (fun q -> if q = p then None else Some pmap.(q)))
  in
  let taken = Hashtbl.create 16 in
  Array.iter (fun t -> Hashtbl.add taken net.transition_names.(t) ()) kept_ts;
  let fused_names =
    Array.map
      (fun a ->
        let name =
          fresh_name taken
            (net.transition_names.(a) ^ "+" ^ net.transition_names.(b))
        in
        Hashtbl.add taken name ();
        name)
      h
  in
  let n_kept = Array.length kept_ts in
  let transition_names =
    Array.append (Array.map (fun t -> net.transition_names.(t)) kept_ts) fused_names
  in
  let arcs =
    Array.init
      (n_kept + Array.length h)
      (fun i ->
        if i < n_kept then
          let t = kept_ts.(i) in
          (i, remap net.pre_list.(t), remap net.post_list.(t))
        else
          let a = h.(i - n_kept) in
          let post =
            Bitset.union (Bitset.remove p net.post.(a)) net.post.(b)
          in
          (i, remap net.pre_list.(a), remap (Array.of_list (Bitset.elements post))))
  in
  let snet =
    Net.make ~name:net.name
      ~place_names:
        (Array.init (net.n_places - 1) (fun q ->
             net.place_names.(if q < p then q else q + 1)))
      ~transition_names ~arcs
      ~initial:
        (Bitset.elements net.initial
        |> List.filter_map (fun q -> if q = p then None else Some pmap.(q)))
  in
  let exp =
    Array.append
      (Array.map (fun t -> st.exp.(t)) kept_ts)
      (Array.map (fun a -> Array.append st.exp.(a) st.exp.(b)) h)
  in
  { snet; exp }

let agglomeration_candidate st =
  let net = st.snet in
  if net.n_places <= 1 then None
  else
    let ok p =
      (not (Bitset.mem p net.initial))
      && Array.length net.consumers.(p) = 1
      && Array.length net.producers.(p) > 0
      &&
      let b = net.consumers.(p).(0) in
      Array.length net.pre_list.(b) = 1
      && not (Array.exists (Int.equal b) net.producers.(p))
    in
    let rec find p =
      if p >= net.n_places then None else if ok p then Some p else find (p + 1)
    in
    find 0

let agglomeration_pass st =
  let rec go st n =
    match agglomeration_candidate st with
    | None -> (st, n)
    | Some p -> go (apply_agglomeration st p) (n + 1)
  in
  go st 0

(* --- Fixpoint driver --------------------------------------------------- *)

let pass_of_rule ~first_round = function
  | Dead_transition -> dead_transition_pass ~first_round
  | Unread_place -> unread_place_pass
  | Constant_place -> constant_place_pass
  | Duplicate_place -> duplicate_place_pass
  | Duplicate_transition -> duplicate_transition_pass
  | Agglomeration -> agglomeration_pass

let rule_index r =
  let rec go i = function
    | [] -> assert false
    | r' :: rest -> if r' == r then i else go (i + 1) rest
  in
  go 0 all_rules

let round ~first_round rules counts st =
  List.fold_left
    (fun (st, changed) r ->
      Guard.Fault.probe fault_site;
      let st', n =
        Span.time
          ("reduce.rule." ^ rule_name r)
          (fun () -> (pass_of_rule ~first_round r) st)
      in
      if n > 0 then (
        Counter.add (counter_of r) n;
        counts.(rule_index r) <- counts.(rule_index r) + n);
      (st', changed || n > 0))
    (st, false) rules

let identity (net : Net.t) =
  {
    original = net;
    net;
    rounds = 0;
    applied = [];
    expansions = Array.init net.n_transitions (fun t -> [| t |]);
    degraded = false;
  }

let is_identity r = r.net == r.original

let ratio r =
  float_of_int (r.original.Net.n_places + r.original.Net.n_transitions)
  /. float_of_int (max 1 (r.net.Net.n_places + r.net.Net.n_transitions))

let run ?(rules = all_rules) (net : Net.t) =
  Counter.incr c_runs;
  List.iter (fun (_, c) -> Counter.touch c) rule_counters;
  let result =
    match
      Span.time "reduce.pipeline" (fun () ->
          let counts = Array.make (List.length all_rules) 0 in
          let rec fix st n =
            if n >= max_rounds then (st, n)
            else
              let st', changed = round ~first_round:(n = 0) rules counts st in
              if changed then fix st' (n + 1) else (st', n)
          in
          let st, rounds = fix (initial_state net) 0 in
          let applied =
            List.filter_map
              (fun r ->
                let n = counts.(rule_index r) in
                if n > 0 then Some (r, n) else None)
              all_rules
          in
          if applied = [] then identity net
          else
            {
              original = net;
              net = st.snet;
              rounds;
              applied;
              expansions = st.exp;
              degraded = false;
            })
    with
    | r -> r
    | exception Out_of_memory ->
        (* A (possibly injected) allocation failure anywhere in the
           pipeline degrades to the identity reduction: intermediate
           states are immutable, so no half-applied mapping can leak. *)
        Counter.incr c_degraded;
        { (identity net) with degraded = true }
  in
  Gauge.set g_ratio (ratio result);
  result

let lift r trace =
  List.concat_map (fun t -> Array.to_list r.expansions.(t)) trace

let pp_summary ppf r =
  Format.fprintf ppf "%d places, %d transitions -> %d places, %d transitions (%.2fx"
    r.original.Net.n_places r.original.Net.n_transitions r.net.Net.n_places
    r.net.Net.n_transitions (ratio r);
  if r.degraded then Format.fprintf ppf "; degraded";
  Format.fprintf ppf ")";
  List.iter
    (fun (rule, n) -> Format.fprintf ppf ", %s: %d" (rule_name rule) n)
    r.applied
