(* Dynamics (Section 3.2): enabling and firing rules. *)

open struct
  module Bitset = Petri.Bitset
  module W = World_set
end

type ctx = {
  net : Petri.Net.t;
  conflict : Petri.Conflict.t;
  choice : Bitset.t;
  alternatives : Bitset.t list list;
      (* per choice cluster: its maximal independent sets *)
  initial : State.t;
}

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

let make ?guard ?conflict (net : Petri.Net.t) =
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
  let r0 = W.product ?guard n (List.map W.of_list alternatives) in
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
  }

let initial_of_marking ctx marking =
  let r0 = State.valid ctx.initial in
  let m =
    Array.init ctx.net.n_places (fun p ->
        if Bitset.mem p marking then r0 else W.empty)
  in
  State.make m r0

let s_enabled ctx t (s : State.t) =
  let pre = ctx.net.pre_list.(t) in
  if Array.length pre = 0 then State.valid s
  else begin
    let acc = ref (State.marking s pre.(0)) in
    for i = 1 to Array.length pre - 1 do
      acc := W.inter !acc (State.marking s pre.(i))
    done;
    !acc
  end

(* The worlds of [h] = s_enabled(t) that chose [t] (Definition 3.5). *)
let choosing ctx t h =
  if Bitset.mem t ctx.choice then W.filter_member t h else W.empty

let m_enabled ctx t s = choosing ctx t (s_enabled ctx t s)

(* A state's enabling sets, computed once per state: they decide which
   transitions a step fires, which worlds move in it and which worlds
   are dead. *)
type enabling = {
  s_enab : W.t array;  (* per transition *)
  m_enab : W.t array;  (* per transition; empty for non-choice *)
}

let enabling ctx s =
  let s_enab = Array.init ctx.net.n_transitions (fun t -> s_enabled ctx t s) in
  { s_enab; m_enab = Array.mapi (choosing ctx) s_enab }

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

(* One GPO step from [en], the enabling sets of [s]: the multiples fire
   with the multiple rule and the singles with the single rule. *)
let step_fire ctx en ~multiples ~singles (s : State.t) =
  let n_places = ctx.net.n_places in
  (* Definition 3.6 with T' = multiples: worlds that chose and fired
     a multiple, or that still single-enable any transition outside
     T' (including the fired singles). *)
  let r' = ref W.empty in
  for t = 0 to ctx.net.n_transitions - 1 do
    let h = if Bitset.mem t multiples then en.m_enab.(t) else en.s_enab.(t) in
    r' := W.union !r' h
  done;
  let removed = Array.make n_places W.empty in
  let added = Array.make n_places W.empty in
  let move enab t =
    let h = enab.(t) in
    assert (not (W.is_empty h));
    Array.iter (fun p -> removed.(p) <- W.union removed.(p) h) ctx.net.pre_list.(t);
    Array.iter (fun p -> added.(p) <- W.union added.(p) h) ctx.net.post_list.(t)
  in
  Bitset.iter (move en.m_enab) multiples;
  List.iter (move en.s_enab) singles;
  let m =
    Array.init n_places (fun p ->
        W.union (W.diff (State.marking s p) removed.(p)) added.(p))
  in
  State.make m !r'

(* Valid worlds of the state [en] was computed from that enable
   nothing. *)
let deadlock_worlds en (s : State.t) =
  W.diff (State.valid s) (Array.fold_left W.union W.empty en.s_enab)

let check_invariant _ctx (s : State.t) =
  Array.iteri
    (fun p ws ->
      if not (W.subset ws (State.valid s)) then
        failwith (Printf.sprintf "GPN invariant violated: m(%d) ⊄ r" p))
    s.State.m
