(* The deviation scan, one denotation class at a time.

   A denotation class of a state is a marking that some of its valid
   worlds denote.  Worlds far outnumber the markings they denote (over-5
   has about 740 worlds per state but at most 11 classes), and every test
   the scan makes on a world depends only on its marking, so the scan
   finds each state's classes in one descent of the world-set tries and
   works per class.  Counts and least worlds stand in for the worlds a
   class result speaks for: a candidate's world is the content-least one
   of its class within the queried set, the world a per-world scan would
   have sorted first. *)

open struct
  module Bitset = Petri.Bitset
  module W = World_set
end

module Marking_table = Petri.Reachability.Marking_table

let successor (net : Petri.Net.t) marking t =
  Bitset.union (Bitset.diff marking net.pre.(t)) net.post.(t)

type t = {
  net : Petri.Net.t;
  choice : Bitset.t;
  cf : int array;  (* the conflict-free transitions, ascending *)
  wakes : int array array;
      (* per transition: the conflict-free consumers of its post-set *)
}

let create ctx =
  let net = Dynamics.net ctx in
  let n = net.Petri.Net.n_transitions in
  let choice = Dynamics.choice_transitions ctx in
  let conflict_free = Bitset.diff (Bitset.full n) choice in
  let consumers = Array.map (Bitset.of_array n) net.Petri.Net.consumers in
  let wakes =
    Array.map
      (fun post ->
        Array.fold_left
          (fun acc p -> Bitset.union acc consumers.(p))
          (Bitset.empty n) post
        |> Bitset.inter conflict_free |> Bitset.elements |> Array.of_list)
      net.Petri.Net.post_list
  in
  { net; choice; cf = Array.of_list (Bitset.elements conflict_free); wakes }

(* ------------------------------------------------------------------ *)
(* Normal form                                                         *)

(* Deadlock-equivalence normal form: fire the lowest-index enabled
   conflict-free transition until quiescence.  A conflict-free
   transition owns its preset exclusively, so it can never be
   disabled: no deadlock can be reached before it fires, and it
   commutes with every other firing — markings equal up to such
   firings reach exactly the same deadlocks.  The walk is
   deterministic; if it enters a cycle of conflict-free firings, the
   smallest marking of the cycle is the canonical representative. *)
let normal_form_walk sc marking =
  let net = sc.net in
  let next m =
    let rec search i =
      if i >= Array.length sc.cf then None
      else if Petri.Semantics.enabled net sc.cf.(i) m then Some sc.cf.(i)
      else search (i + 1)
    in
    search 0
  in
  let seen = Marking_table.create 8 in
  let rec walk m =
    match next m with
    | None -> m
    | Some t ->
        if Marking_table.mem seen m then begin
          (* Cycle: walk it once more, collecting its markings. *)
          let rec collect m' acc =
            match next m' with
            | None -> assert false
            | Some t' ->
                let m'' = successor net m' t' in
                if Bitset.equal m'' m then acc
                else collect m'' (if Bitset.compare m'' acc < 0 then m'' else acc)
          in
          collect m m
        end
        else begin
          Marking_table.add seen m ();
          walk (successor net m t)
        end
  in
  walk marking

(* The enabled conflict-free transitions of a marking, as words of bits
   indexed by transition. *)
let bits = Sys.int_size

let enabled_cf sc m =
  let enabled = Array.make ((sc.net.Petri.Net.n_transitions / bits) + 1) 0 in
  Array.iter
    (fun t ->
      if Petri.Semantics.enabled sc.net t m then
        enabled.(t / bits) <- enabled.(t / bits) lor (1 lsl (t mod bits)))
    sc.cf;
  enabled

let update sc enabled m t =
  if Petri.Semantics.enabled sc.net t m then
    enabled.(t / bits) <- enabled.(t / bits) lor (1 lsl (t mod bits))
  else enabled.(t / bits) <- enabled.(t / bits) land lnot (1 lsl (t mod bits))

(* Index of the lowest set bit of a non-zero word. *)
let lowest_bit x =
  let n = ref 0 and x = ref x in
  List.iter
    (fun (width, mask) ->
      if !x land mask = 0 then begin
        n := !n + width;
        x := !x lsr width
      end)
    [ (32, 0xFFFF_FFFF); (16, 0xFFFF); (8, 0xFF); (4, 0xF); (2, 0x3); (1, 0x1) ];
  !n

let rec lowest enabled i =
  if i >= Array.length enabled then -1
  else if enabled.(i) = 0 then lowest enabled (i + 1)
  else (i * bits) + lowest_bit enabled.(i)

(* The walk of [normal_form_walk], with [enabled] (the marking's
   enabled conflict-free transitions, updated in place) kept up to date:
   firing a conflict-free transition disables no other, since none
   shares its preset, so only the fired transition and the consumers of
   its post-set need re-checking.  A walk still running after |cf| + 1
   firings may be in a cycle; it goes on as [normal_form_walk] from
   where it is, which finds the same cycle, hence the same least
   marking, as a walk from the start. *)
let walk sc enabled marking =
  let rec fire m steps =
    let t = lowest enabled 0 in
    if t < 0 then m
    else if steps > Array.length sc.cf then normal_form_walk sc m
    else begin
      let m' = successor sc.net m t in
      update sc enabled m' t;
      Array.iter (update sc enabled m') sc.wakes.(t);
      fire m' (steps + 1)
    end
  in
  fire marking 0

let normal_form sc m = walk sc (enabled_cf sc m) m

(* A choice transition shares no input place with a conflict-free one,
   so firing it keeps every enabled conflict-free transition enabled
   and can enable only consumers of its post-set: the successor's walk
   starts from the marking's enabled set. *)
let successor_normal_form sc enabled m t =
  let m' = successor sc.net m t in
  let enabled = Array.copy enabled in
  Array.iter (update sc enabled m') sc.wakes.(t);
  (m', walk sc enabled m')

(* ------------------------------------------------------------------ *)
(* Denotation classes                                                  *)

(* A trie lists its worlds in increasing id order, and the descent cuts
   the valid worlds' trie into subtrees, so each cut is a run of
   consecutive worlds in that order: the cuts' last world ids, sorted,
   map a world to its cut by binary search. *)
type classes = {
  markings : Bitset.t array;  (* per class *)
  enabled : int array array;  (* per class: [enabled_cf] of its marking *)
  cuts : int;
  cut_last : int array;  (* per cut, in trie order: its largest world id *)
  cut_class : int array;
  count : int array;  (* [iter_meeting]'s scratch, zero between calls *)
  least : W.world array;
  touched : int array;
}

let classify sc (s : State.t) =
  let valid = State.valid s in
  let index = Marking_table.create 64 in
  (* A cut holds at least one world. *)
  let cut_last = Array.make (W.cardinal valid) 0 in
  let cut_class = Array.make (W.cardinal valid) 0 in
  let cuts = ref 0 in
  W.iter_uniform
    (fun sub m ->
      let c =
        match Marking_table.find_opt index m with
        | Some c -> c
        | None ->
            let c = Marking_table.length index in
            Marking_table.add index m c;
            c
      in
      cut_last.(!cuts) <- W.fold (fun v _ -> Bitset.id v) sub (-1);
      cut_class.(!cuts) <- c;
      incr cuts)
    valid s.State.m;
  let n = Marking_table.length index in
  let markings = Array.make n (Bitset.empty 0) in
  Marking_table.iter (fun m c -> markings.(c) <- m) index;
  {
    markings;
    enabled = Array.map (enabled_cf sc) markings;
    cuts = !cuts;
    cut_last;
    cut_class;
    count = Array.make n 0;
    least = Array.make n (Bitset.empty 0);
    touched = Array.make n 0;
  }

let class_of cl v =
  let id = Bitset.id v in
  (* The first cut whose last world id is at least [id]. *)
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if cl.cut_last.(mid) < id then search (mid + 1) hi else search lo mid
    end
  in
  cl.cut_class.(search 0 (cl.cuts - 1))

(* [f c k v] for each class [c] meeting [q], with the number [k] of its
   worlds in [q] and the content-least [v] of them.  The scratch arrays
   spare the scan a list per call: [f] must not call [iter_meeting]. *)
let iter_meeting cl q f =
  let n = ref 0 in
  W.iter
    (fun v ->
      let c = class_of cl v in
      let k = cl.count.(c) in
      if k = 0 then begin
        cl.touched.(!n) <- c;
        incr n;
        cl.least.(c) <- v
      end
      else if Bitset.compare v cl.least.(c) < 0 then cl.least.(c) <- v;
      cl.count.(c) <- k + 1)
    q;
  for i = 0 to !n - 1 do
    let c = cl.touched.(i) in
    let k = cl.count.(c) in
    cl.count.(c) <- 0;
    f c k cl.least.(c)
  done

let markings_meeting cl q =
  let ms = ref [] in
  iter_meeting cl q (fun c _ _ -> ms := cl.markings.(c) :: !ms);
  !ms

(* ------------------------------------------------------------------ *)
(* Deviation candidates                                                *)

type candidate = {
  key : Bitset.t;
  root : Bitset.t;
  world : W.world;
  transition : Petri.Net.transition;
  deviations : int;
  conditional : bool;
}

let compare_candidates a b =
  let c = Bitset.compare a.key b.key in
  if c <> 0 then c
  else begin
    let c = Bitset.compare a.root b.root in
    if c <> 0 then c
    else begin
      let c = Int.compare a.transition b.transition in
      if c <> 0 then c else Bitset.compare a.world b.world
    end
  end

let class_deviation sc cl c t =
  successor_normal_form sc cl.enabled.(c) cl.markings.(c) t

let deviation sc cl v t = class_deviation sc cl (class_of cl v) t

let candidate sc cl ~conditional ~known t c deviations world =
  let root, key = class_deviation sc cl c t in
  if conditional && known key then None
  else Some { key; root; world; transition = t; deviations; conditional }

let restarts sc cl ~conditional ~known t q =
  let out = ref [] in
  iter_meeting cl q (fun c k v ->
      Option.iter
        (fun dc -> out := dc :: !out)
        (candidate sc cl ~conditional ~known t c k v));
  !out

type result = {
  denotations : Bitset.t list;
  candidates : candidate list;
  rejections : W.t array;
}

let run sc cl ~known ~s_enab ~m_enab ~prev =
  (* Normal forms once per class, numbered by distinct normal form. *)
  let nf_index = Marking_table.create 64 in
  let nf_id =
    Array.mapi
      (fun c m ->
        let key = walk sc (Array.copy cl.enabled.(c)) m in
        match Marking_table.find_opt nf_index key with
        | Some i -> i
        | None ->
            let i = Marking_table.length nf_index in
            Marking_table.add nf_index key i;
            i)
      cl.markings
  in
  let denotations =
    Marking_table.fold
      (fun key _ acc -> if known key then acc else key :: acc)
      nf_index []
  in
  let denoted key = known key || Marking_table.mem nf_index key in
  (* [firing.(i) = t]: some world about to fire [t] this step denotes
     a marking of normal form [i].  Its post-firing marking is not in
     the tables yet, so it covers rejecting worlds of that normal form
     by pre-firing equality. *)
  let firing = Array.make (Marking_table.length nf_index) (-1) in
  let candidates = ref [] in
  let rejections = Array.make (Array.length s_enab) W.empty in
  Bitset.iter
    (fun t ->
      rejections.(t) <- W.diff s_enab.(t) m_enab.(t);
      let rejecting = W.diff rejections.(t) prev.(t) in
      if not (W.is_empty rejecting) then begin
        W.iter (fun u -> firing.(nf_id.(class_of cl u)) <- t) m_enab.(t);
        iter_meeting cl rejecting (fun c k v ->
            if firing.(nf_id.(c)) <> t then
              Option.iter
                (fun dc -> candidates := dc :: !candidates)
                (candidate sc cl ~conditional:true ~known:denoted t c k v))
      end)
    sc.choice;
  { denotations; candidates = !candidates; rejections }
