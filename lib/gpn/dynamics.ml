(* Dynamics (Section 3.2): enabling and firing rules. *)

open struct
  module Bitset = Petri.Bitset
  module W = World_set
end

(* Bounded memo for [s_enabled], keyed on the transition and the
   markings of its input places: hash-consed world sets make the key
   a few stored-id reads to hash and compare. *)
module Senab_tbl = Hashtbl.Make (struct
  type t = int * W.t list

  let equal (t1, l1) (t2, l2) = t1 = t2 && List.equal W.equal l1 l2

  let hash (t, l) =
    List.fold_left (fun h w -> (h * 486187739) + W.hash w) t l land max_int
end)

let senab_bound = 1 lsl 16
let c_senab_hit = Gpo_obs.Counter.make "gpn.senab.cache_hit"
let c_senab_miss = Gpo_obs.Counter.make "gpn.senab.cache_miss"

type ctx = {
  net : Petri.Net.t;
  conflict : Petri.Conflict.t;
  choice : Bitset.t;
  alternatives : Bitset.t list list;
      (* per choice cluster: its maximal independent sets *)
  initial : State.t;
  senab_id : int;
      (* key into the per-domain memo stores: the s_enabled cache
         is plain mutable state, so sharing one table across the
         wave workers would race — each domain keeps its own,
         keyed by the analysis context that owns it *)
}

let next_senab_id = Atomic.make 0

let senab_store : (int, W.t Senab_tbl.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

(* A domain outlives many analyses (pool workers are reused), so
   the per-domain store is bounded: it keeps the tables of the few
   live contexts and drops stale ones wholesale. *)
let senab_for ctx =
  let store = Domain.DLS.get senab_store in
  match Hashtbl.find_opt store ctx.senab_id with
  | Some tbl -> tbl
  | None ->
      if Hashtbl.length store >= 8 then Hashtbl.reset store;
      let tbl = Senab_tbl.create 1024 in
      Hashtbl.add store ctx.senab_id tbl;
      tbl

let net ctx = ctx.net
let conflict ctx = ctx.conflict
let choice_transitions ctx = ctx.choice
let cluster_alternatives ctx = ctx.alternatives
let initial ctx = ctx.initial

(* Maximal independent sets of the conflict relation restricted to a
   cluster: the maximal cliques of the independence ("non-conflict")
   adjacency, by Bron-Kerbosch with Tomita's pivot (Tomita, Tanaka &
   Takahashi, TCS 363, 2006).  Each call branches only on the
   candidates outside the neighbourhood of the pivot that covers most
   candidates, which bounds the enumeration on k transitions by
   O(3^(k/3)), the most maximal sets k transitions can have; RW's n
   mutually independent readers cost O(n) calls instead of 2^n.  The
   sets come back sorted by [Bitset.compare], a function of the
   cluster alone. *)
let maximal_independent_sets conflict members =
  let width = Bitset.width members in
  let independent v =
    Bitset.diff (Bitset.remove v members) (Petri.Conflict.conflicting conflict v)
  in
  let results = ref [] in
  let rec bron_kerbosch r p x =
    if Bitset.is_empty p && Bitset.is_empty x then results := r :: !results
    else begin
      let pivot, _ =
        Bitset.fold
          (fun u (_, best as acc) ->
            let covered = Bitset.cardinal (Bitset.inter p (independent u)) in
            if covered > best then (u, covered) else acc)
          (Bitset.union p x) (-1, -1)
      in
      let branches = Bitset.diff p (independent pivot) in
      let p = ref p and x = ref x in
      Bitset.iter
        (fun v ->
          let n = independent v in
          bron_kerbosch (Bitset.add v r) (Bitset.inter !p n) (Bitset.inter !x n);
          p := Bitset.remove v !p;
          x := Bitset.add v !x)
        branches
    end
  in
  bron_kerbosch (Bitset.empty width) members (Bitset.empty width);
  List.sort Bitset.compare !results

let make ?conflict (net : Petri.Net.t) =
  Gpo_obs.Span.time "gpo.setup" @@ fun () ->
  let conflict =
    match conflict with Some c -> c | None -> Petri.Conflict.analyse net
  in
  let n = net.n_transitions in
  let choice = ref (Bitset.empty n) in
  let alternatives = ref [] in
  Array.iter
    (fun members ->
      if Bitset.cardinal members >= 2 then begin
        choice := Bitset.union !choice members;
        alternatives := maximal_independent_sets conflict members :: !alternatives
      end)
    (Petri.Conflict.clusters conflict);
  let alternatives = List.rev !alternatives in
  let r0 = W.product n (List.map W.of_list alternatives) in
  let m0 =
    Array.init net.n_places (fun p ->
        if Bitset.mem p net.initial then r0 else W.empty)
  in
  {
    net;
    conflict;
    choice = !choice;
    alternatives;
    initial = State.make m0 r0;
    senab_id = Atomic.fetch_and_add next_senab_id 1;
  }

let initial_of_marking ctx marking =
  let r0 = State.valid ctx.initial in
  let m =
    Array.init ctx.net.n_places (fun p ->
        if Bitset.mem p marking then r0 else W.empty)
  in
  State.make m r0

let s_enabled_direct pre (s : State.t) =
  let acc = ref (State.marking s pre.(0)) in
  for i = 1 to Array.length pre - 1 do
    acc := W.inter !acc (State.marking s pre.(i))
  done;
  !acc

let s_enabled ctx t (s : State.t) =
  let pre = ctx.net.pre_list.(t) in
  match Array.length pre with
  | 0 -> State.valid s
  | 1 -> State.marking s pre.(0)
  | _ -> begin
      let senab = senab_for ctx in
      let key = (t, Array.fold_right (fun p acc -> State.marking s p :: acc) pre []) in
      match Senab_tbl.find_opt senab key with
      | Some r ->
          Gpo_obs.Counter.incr c_senab_hit;
          r
      | None ->
          Gpo_obs.Counter.incr c_senab_miss;
          let r = s_enabled_direct pre s in
          if Senab_tbl.length senab >= senab_bound then
            Senab_tbl.reset senab;
          Senab_tbl.add senab key r;
          r
    end

let enabled_transitions ctx s =
  let rec loop t acc =
    if t < 0 then acc
    else begin
      let acc =
        if W.is_empty (s_enabled ctx t s) then acc else Bitset.add t acc
      in
      loop (t - 1) acc
    end
  in
  loop (ctx.net.n_transitions - 1) (Bitset.empty ctx.net.n_transitions)

let m_enabled ctx t s =
  if Bitset.mem t ctx.choice then W.filter_member t (s_enabled ctx t s)
  else W.empty

let single_fire ctx t (s : State.t) =
  let history = s_enabled ctx t s in
  assert (not (W.is_empty history));
  let pre = ctx.net.pre.(t) and post = ctx.net.post.(t) in
  let m =
    Array.mapi
      (fun p ws ->
        let in_pre = Bitset.mem p pre and in_post = Bitset.mem p post in
        if in_pre && not in_post then W.diff ws history
        else if in_post && not in_pre then W.union ws history
        else ws)
      (Array.init (Array.length ctx.net.place_names) (State.marking s))
  in
  State.make m (State.valid s)

let batch_single_fire ctx ts (s : State.t) =
  let histories =
    List.map
      (fun t ->
        let h = s_enabled ctx t s in
        assert (not (W.is_empty h));
        (t, h))
      ts
  in
  let n_places = ctx.net.n_places in
  let removed = Array.make n_places W.empty in
  let added = Array.make n_places W.empty in
  List.iter
    (fun (t, h) ->
      let pre = ctx.net.pre.(t) and post = ctx.net.post.(t) in
      Array.iter
        (fun p ->
          if not (Bitset.mem p post) then removed.(p) <- W.union removed.(p) h)
        ctx.net.pre_list.(t);
      Array.iter
        (fun p ->
          if not (Bitset.mem p pre) then added.(p) <- W.union added.(p) h)
        ctx.net.post_list.(t))
    histories;
  let m =
    Array.init n_places (fun p ->
        W.union (W.diff (State.marking s p) removed.(p)) added.(p))
  in
  State.make m (State.valid s)

let multiple_fire ctx fired (s : State.t) =
  let n_places = ctx.net.n_places in
  let histories =
    (* m_enabled per fired transition, computed once. *)
    let table = Hashtbl.create 16 in
    Bitset.iter
      (fun t ->
        let h = m_enabled ctx t s in
        assert (not (W.is_empty h));
        Hashtbl.add table t h)
      fired;
    table
  in
  (* r' keeps the worlds that chose a fired transition, plus the
     worlds still single-enabling some unfired transition
     (Definition 3.6). *)
  let r' = ref W.empty in
  for t = 0 to ctx.net.n_transitions - 1 do
    if Bitset.mem t fired then r' := W.union !r' (Hashtbl.find histories t)
    else r' := W.union !r' (s_enabled ctx t s)
  done;
  let r' = !r' in
  let removed = Array.make n_places W.empty in
  let added = Array.make n_places W.empty in
  Bitset.iter
    (fun t ->
      let h = Hashtbl.find histories t in
      Array.iter
        (fun p -> removed.(p) <- W.union removed.(p) h)
        ctx.net.pre_list.(t);
      Array.iter
        (fun p -> added.(p) <- W.union added.(p) h)
        ctx.net.post_list.(t))
    fired;
  let m =
    Array.init n_places (fun p ->
        W.union (W.diff (State.marking s p) removed.(p)) added.(p))
  in
  (* State.make intersects every place with r'. *)
  State.make m r'

let step_fire ctx ~multiples ~singles (s : State.t) =
  let n_places = ctx.net.n_places in
  let histories = Hashtbl.create 16 in
  Bitset.iter
    (fun t ->
      let h = m_enabled ctx t s in
      assert (not (W.is_empty h));
      Hashtbl.add histories t h)
    multiples;
  List.iter
    (fun t ->
      let h = s_enabled ctx t s in
      assert (not (W.is_empty h));
      Hashtbl.add histories t h)
    singles;
  (* Definition 3.6 with T' = multiples: worlds that chose and fired
     a multiple, or that still single-enable any transition outside
     T' (including the fired singles). *)
  let r' = ref W.empty in
  for t = 0 to ctx.net.n_transitions - 1 do
    if Bitset.mem t multiples then r' := W.union !r' (Hashtbl.find histories t)
    else r' := W.union !r' (s_enabled ctx t s)
  done;
  let removed = Array.make n_places W.empty in
  let added = Array.make n_places W.empty in
  let move t h =
    Array.iter (fun p -> removed.(p) <- W.union removed.(p) h) ctx.net.pre_list.(t);
    Array.iter (fun p -> added.(p) <- W.union added.(p) h) ctx.net.post_list.(t)
  in
  Hashtbl.iter move histories;
  let m =
    Array.init n_places (fun p ->
        W.union (W.diff (State.marking s p) removed.(p)) added.(p))
  in
  State.make m !r'

let deadlock_worlds ctx (s : State.t) =
  let live = ref W.empty in
  for t = 0 to ctx.net.n_transitions - 1 do
    live := W.union !live (s_enabled ctx t s)
  done;
  W.diff (State.valid s) !live

let check_invariant _ctx (s : State.t) =
  Array.iteri
    (fun p ws ->
      if not (W.subset ws (State.valid s)) then
        failwith (Printf.sprintf "GPN invariant violated: m(%d) ⊄ r" p))
    s.State.m
