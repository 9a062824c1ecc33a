(* The deviation scan, one denotation class at a time.

   A denotation class of a state is a marking that some of its valid
   worlds denote.  Worlds far outnumber the markings they denote (over-5
   has about 740 worlds per state but at most 11 classes), and every test
   the scan makes on a world depends only on its marking, so the scan
   finds each state's classes in one descent of the valid set's diagram,
   cut wherever the conflict choices decide the marking, and works per
   class.  The cuts are kept as a tree: a world's class is found by
   following its transitions down it, and the classes meeting a query
   set come from one descent of that set along it.  Counts and least
   worlds stand in for the worlds a class result speaks for: a
   candidate's world is the content-least one of its class within the
   queried set, the world a per-world scan would have sorted first, and
   it is built only for a candidate that is kept.  Normal forms fire
   transitions in place on one marking buffer per [classify]; a key
   becomes a set once, at the end of its walk. *)

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
  for i = 0 to Array.length sc.cf - 1 do
    let t = sc.cf.(i) in
    if Bitset.subset sc.net.Petri.Net.pre.(t) m then
      enabled.(t / bits) <- enabled.(t / bits) lor (1 lsl (t mod bits))
  done;
  enabled

let update sc enabled buf t =
  if Bitset.Buf.contains buf sc.net.Petri.Net.pre.(t) then
    enabled.(t / bits) <- enabled.(t / bits) lor (1 lsl (t mod bits))
  else enabled.(t / bits) <- enabled.(t / bits) land lnot (1 lsl (t mod bits))

(* Re-check the conflict-free consumers of [t]'s post-set after [t]
   fired on [buf]. *)
let wake sc enabled buf t =
  let consumers = sc.wakes.(t) in
  for i = 0 to Array.length consumers - 1 do
    update sc enabled buf consumers.(i)
  done

(* Index of the lowest set bit of a non-zero word, by halving. *)
let lowest_bit x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF_FFFF = 0 then begin n := !n + 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then n := !n + 1;
  !n

let rec lowest enabled i =
  if i >= Array.length enabled then -1
  else if enabled.(i) = 0 then lowest enabled (i + 1)
  else (i * bits) + lowest_bit enabled.(i)

(* The walk of [normal_form_walk] on the marking in [buf], fired in
   place, with [enabled] (the marking's enabled conflict-free
   transitions, updated in place) kept up to date: firing a
   conflict-free transition disables no other, since none shares its
   preset, so only the fired transition and the consumers of its
   post-set need re-checking.  A walk still running after |cf| + 1
   firings may be in a cycle; it goes on as [normal_form_walk] from
   where it is, which finds the same cycle, hence the same least
   marking, as a walk from the start. *)
let walk sc enabled buf =
  let net = sc.net in
  let rec fire steps =
    let t = lowest enabled 0 in
    if t < 0 then Bitset.Buf.freeze buf
    else if steps > Array.length sc.cf then
      normal_form_walk sc (Bitset.Buf.freeze buf)
    else begin
      Bitset.Buf.fire buf ~pre:net.Petri.Net.pre.(t) ~post:net.Petri.Net.post.(t);
      update sc enabled buf t;
      wake sc enabled buf t;
      fire (steps + 1)
    end
  in
  fire 0

let normal_form sc m =
  let buf = Bitset.Buf.create (Bitset.width m) in
  Bitset.Buf.load buf m;
  walk sc (enabled_cf sc m) buf

(* ------------------------------------------------------------------ *)
(* Denotation classes                                                  *)

type classes = {
  markings : Bitset.t array;  (* per class *)
  enabled : int array array;  (* per class: [enabled_cf] of its marking *)
  cuts : int W.cuts;  (* the valid worlds' cuts, labelled by class *)
  count : int array;  (* [iter_meeting]'s scratch, zero between calls *)
  least : (unit -> W.world) array;
  touched : int array;
  buf : Bitset.Buf.t;  (* a marking, fired in place by the normal forms *)
  scratch : int array;  (* its enabled conflict-free transitions *)
}

let no_least () = raise Not_found

(* A state can have hundreds of thousands of classes (over-9 has
   468 750 worlds per state), so the scan polls [guard] once per 4 096
   cuts or classes and once per rejected transition. *)
let classify ?guard sc (s : State.t) =
  let index = Marking_table.create 64 in
  let n_cuts = ref 0 in
  let cuts =
    W.iter_uniform
      (fun m ->
        incr n_cuts;
        if !n_cuts land 4095 = 0 then Guard.check_now ?guard ();
        match Marking_table.find_opt index m with
        | Some c -> c
        | None ->
            let c = Marking_table.length index in
            Marking_table.add index m c;
            c)
      (State.valid s) s.State.m
  in
  let n = Marking_table.length index in
  let markings = Array.make n (Bitset.empty 0) in
  Marking_table.iter (fun m c -> markings.(c) <- m) index;
  {
    markings;
    enabled = Array.map (enabled_cf sc) markings;
    cuts;
    count = Array.make n 0;
    least = Array.make n no_least;
    touched = Array.make n 0;
    buf = Bitset.Buf.create sc.net.Petri.Net.n_places;
    scratch = Array.make ((sc.net.Petri.Net.n_transitions / bits) + 1) 0;
  }

let class_of cl v =
  let rec go = function
    | W.Cut c -> c
    | W.Split (t, without, with_) -> go (if Bitset.mem t v then with_ else without)
    | W.Nothing -> invalid_arg "Scan.class_of: not a valid world"
  in
  go cl.cuts

(* [f c k least] for each class [c] meeting [q], with the number [k] of
   its worlds in [q] and a builder of the content-least of them: the
   cuts come in content order, so a class's first cut holds it.  The
   scratch arrays spare the scan a list per call: [f] must not call
   [iter_meeting]. *)
let iter_meeting cl q f =
  let n = ref 0 in
  W.iter_cuts
    (fun c k least ->
      if cl.count.(c) = 0 then begin
        cl.touched.(!n) <- c;
        incr n;
        cl.least.(c) <- least
      end;
      cl.count.(c) <- cl.count.(c) + k)
    cl.cuts q;
  for i = 0 to !n - 1 do
    let c = cl.touched.(i) in
    let k = cl.count.(c) and least = cl.least.(c) in
    cl.count.(c) <- 0;
    cl.least.(c) <- no_least;
    f c k least
  done

let markings_meeting cl q =
  let ms = ref [] in
  iter_meeting cl q (fun c _ _ -> ms := cl.markings.(c) :: !ms);
  !ms

(* The normal forms of class [c]'s marking and of its successors, in
   the classes' buffers. *)
let load cl c =
  Bitset.Buf.load cl.buf cl.markings.(c);
  Array.blit cl.enabled.(c) 0 cl.scratch 0 (Array.length cl.scratch)

let class_key sc cl c =
  load cl c;
  walk sc cl.scratch cl.buf

(* A choice transition shares no input place with a conflict-free one,
   so firing it keeps every enabled conflict-free transition enabled and
   can enable only consumers of its post-set: the successor's walk
   starts from the class's enabled set. *)
let successor_key sc cl c t =
  load cl c;
  Bitset.Buf.fire cl.buf ~pre:sc.net.Petri.Net.pre.(t) ~post:sc.net.Petri.Net.post.(t);
  wake sc cl.scratch cl.buf t;
  walk sc cl.scratch cl.buf

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

let deviation sc cl v t =
  let c = class_of cl v in
  (successor sc.net cl.markings.(c) t, successor_key sc cl c t)

(* The successor marking and the least world are built only for a
   candidate that is kept. *)
let candidate sc cl ~conditional ~known t c deviations least =
  let key = successor_key sc cl c t in
  if conditional && known key then None
  else
    Some
      {
        key;
        root = successor sc.net cl.markings.(c) t;
        world = least ();
        transition = t;
        deviations;
        conditional;
      }

let restarts sc cl ~conditional ~known t q =
  let out = ref [] in
  iter_meeting cl q (fun c k least ->
      Option.iter
        (fun dc -> out := dc :: !out)
        (candidate sc cl ~conditional ~known t c k least));
  !out

type result = {
  denotations : Bitset.t list;
  candidates : candidate list;
  rejections : W.t array;
}

let run ?guard sc cl ~known ~s_enab ~m_enab ~prev =
  (* Normal forms once per class, numbered by distinct normal form. *)
  let nf_index = Marking_table.create 64 in
  let nf_id =
    Array.mapi
      (fun c _ ->
        if c land 4095 = 4095 then Guard.check_now ?guard ();
        let key = class_key sc cl c in
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
        Guard.check_now ?guard ();
        W.iter_cuts (fun c _ _ -> firing.(nf_id.(c)) <- t) cl.cuts m_enab.(t);
        iter_meeting cl rejecting (fun c k least ->
            if firing.(nf_id.(c)) <> t then
              Option.iter
                (fun dc -> candidates := dc :: !candidates)
                (candidate sc cl ~conditional:true ~known:denoted t c k least))
      end)
    sc.choice;
  { denotations; candidates = !candidates; rejections }
