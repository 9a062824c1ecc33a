(* Hash-consed world sets.

   A world set is a big-endian Patricia trie over the interning ids of
   its member worlds (every inserted world is canonicalized through
   [Petri.Bitset.intern] first).  Trie nodes are themselves hash-consed
   through a weak unique table, so:

   - structurally equal sets are physically equal ([equal] is [==]);
   - [hash] and [compare] read a stored per-node id (O(1));
   - [cardinal] is stored in every branch (O(1));
   - the set algebra ([union]/[inter]/[diff]/[filter_member]) is
     memoized in bounded caches keyed on node-id pairs, with
     pointer-equality short-circuits ([union x x = x], and rebuilds
     that reproduce an operand — the subset cases — return the operand
     itself without allocating).

   The unique table is weak: nodes unreachable from any live state are
   reclaimed by the GC, so long exploration runs do not accumulate
   garbage canonical forms.  Memo caches are strong but bounded — when
   a cache reaches its bound it is dropped wholesale (the next misses
   rebuild the useful entries).  Node ids are never reused, so stale
   cache entries keyed on collected nodes can only miss, never alias. *)

module B = Petri.Bitset

type world = B.t

type t =
  | Empty
  | Leaf of { w : world; key : int; uid : int }
  | Branch of { prefix : int; bit : int; l : t; r : t; uid : int; card : int }

let uid = function Empty -> 0 | Leaf l -> l.uid | Branch b -> b.uid
let cardinal = function Empty -> 0 | Leaf _ -> 1 | Branch b -> b.card

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)

module Node_hash = struct
  type nonrec t = t

  (* Children are already canonical when a candidate is built, so
     physical equality on them decides structural equality. *)
  let equal a b =
    match (a, b) with
    | Leaf x, Leaf y -> x.key = y.key
    | Branch x, Branch y ->
        x.prefix = y.prefix && x.bit = y.bit && x.l == y.l && x.r == y.r
    | _ -> false

  let hash = function
    | Empty -> 0
    | Leaf x -> (x.key * 2654435761) land max_int
    | Branch x ->
        ((((x.prefix * 486187739) + x.bit) * 486187739 + uid x.l) * 486187739
        + uid x.r)
        land max_int
end

module Unique = Weak.Make (Node_hash)

(* Striped hashcons table: equal candidate nodes hash to the same
   stripe (children are already canonical, so [Node_hash.hash] is a
   function of content), which keeps the canonical-survivor guarantee
   while letting domains cons concurrently.  Each stripe lock is
   independent; they all probe under one obs.lock.wait.worldset.unique
   histogram. *)
let n_stripes = 64

let unique_stripes = Array.init n_stripes (fun _ -> Unique.create 256)

let unique_locks =
  Array.init n_stripes (fun _ -> Gpo_obs.Lock.make "worldset.unique")

let next_uid = Atomic.make 1

let fresh_uid () = Atomic.fetch_and_add next_uid 1

let c_nodes = Gpo_obs.Counter.make "worldset.unique_nodes"

let hashcons node =
  let i = Node_hash.hash node land (n_stripes - 1) in
  Gpo_obs.Lock.with_lock unique_locks.(i) (fun () ->
      let r = Unique.merge unique_stripes.(i) node in
      if r == node then Gpo_obs.Counter.incr c_nodes;
      r)

let leaf w =
  let w = B.intern w in
  hashcons (Leaf { w; key = B.id w; uid = fresh_uid () })

let branch prefix bit l r =
  hashcons
    (Branch { prefix; bit; l; r; uid = fresh_uid (); card = cardinal l + cardinal r })

(* Like [branch] but tolerates children emptied by [diff]/[filter_member]. *)
let branch0 prefix bit l r =
  match (l, r) with Empty, t | t, Empty -> t | _ -> branch prefix bit l r

(* ------------------------------------------------------------------ *)
(* Memo caches                                                         *)

let cache_bound = 1 lsl 17

(* A memo entry is keyed on its two operands' ids (for [filter_member],
   the transition and the node id).  Node ids are process-wide and never
   reused, so a long-lived process passes 2^31 of them and a pair of ids
   no longer packs into one int: the key keeps both.  A probe fills the
   domain's scratch key instead of allocating one; only a store copies
   it. *)
type key = { mutable ka : int; mutable kb : int }

module Memo = Hashtbl.Make (struct
  type t = key

  let equal x y = x.ka = y.ka && x.kb = y.kb
  let hash k = ((k.ka * 0x9E3779B1) + k.kb) land max_int
end)

(* Memoization never takes a lock: each domain owns its four memo
   tables in domain-local storage, so the recursive set algebra only
   ever touches tables no other domain can see.

   Cross-domain invalidation (Guard.on_memory_pressure must drop every
   domain's cache, not just the caller's) works by generation: a global
   counter is bumped by [clear_caches]; each domain lazily resets its
   tables when it next observes a stale generation.  Node ids are never
   reused, so a stale entry that survives until then can only miss,
   never alias. *)

type caches = {
  mutable gen : int;
  probe : key;
  union_c : t Memo.t;
  inter_c : t Memo.t;
  diff_c : t Memo.t;
  filter_c : t Memo.t;
}

let cache_gen = Atomic.make 0

let caches_key =
  Domain.DLS.new_key (fun () ->
      {
        gen = Atomic.get cache_gen;
        probe = { ka = 0; kb = 0 };
        union_c = Memo.create 4096;
        inter_c = Memo.create 4096;
        diff_c = Memo.create 4096;
        filter_c = Memo.create 4096;
      })

let reset_caches c =
  Memo.reset c.union_c;
  Memo.reset c.inter_c;
  Memo.reset c.diff_c;
  Memo.reset c.filter_c

let local_caches () =
  let c = Domain.DLS.get caches_key in
  let g = Atomic.get cache_gen in
  if c.gen <> g then begin
    c.gen <- g;
    reset_caches c
  end;
  c

let cache_find c tbl a b =
  c.probe.ka <- a;
  c.probe.kb <- b;
  Memo.find_opt tbl c.probe

let cache_store tbl a b v =
  if Memo.length tbl >= cache_bound then Memo.reset tbl;
  Memo.add tbl { ka = a; kb = b } v

let c_union_hit = Gpo_obs.Counter.make "worldset.union.cache_hit"
let c_union_miss = Gpo_obs.Counter.make "worldset.union.cache_miss"
let c_inter_hit = Gpo_obs.Counter.make "worldset.inter.cache_hit"
let c_inter_miss = Gpo_obs.Counter.make "worldset.inter.cache_miss"
let c_diff_hit = Gpo_obs.Counter.make "worldset.diff.cache_hit"
let c_diff_miss = Gpo_obs.Counter.make "worldset.diff.cache_miss"
let c_filter_hit = Gpo_obs.Counter.make "worldset.filter.cache_hit"
let c_filter_miss = Gpo_obs.Counter.make "worldset.filter.cache_miss"

let touch_stats () =
  Gpo_obs.Counter.touch c_nodes;
  Gpo_obs.Counter.touch c_union_hit;
  Gpo_obs.Counter.touch c_union_miss;
  Gpo_obs.Counter.touch c_inter_hit;
  Gpo_obs.Counter.touch c_inter_miss;
  Gpo_obs.Counter.touch c_diff_hit;
  Gpo_obs.Counter.touch c_diff_miss;
  Gpo_obs.Counter.touch c_filter_hit;
  Gpo_obs.Counter.touch c_filter_miss

(* ------------------------------------------------------------------ *)
(* Big-endian Patricia plumbing (Okasaki & Gill; Filliâtre's Ptset).
   Keys are the non-negative interning ids of the member worlds.       *)

let zero_bit k m = k land m = 0

(* Bits strictly above [m]. *)
let mask k m = k land lnot ((m lsl 1) - 1)
let match_prefix k p m = mask k m = p

let highest_bit x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  x - (x lsr 1)

let branching_bit p0 p1 = highest_bit (p0 lxor p1)

let join p0 t0 p1 t1 =
  let m = branching_bit p0 p1 in
  if zero_bit p0 m then branch (mask p0 m) m t0 t1 else branch (mask p0 m) m t1 t0

let rec mem_key k = function
  | Empty -> false
  | Leaf { key; _ } -> key = k
  | Branch { prefix; bit; l; r; _ } ->
      match_prefix k prefix bit && mem_key k (if zero_bit k bit then l else r)

(* [lf] is an already-consed leaf, reused physically. *)
let rec insert lf t =
  let k = match lf with Leaf { key; _ } -> key | _ -> assert false in
  match t with
  | Empty -> lf
  | Leaf { key = j; _ } -> if j = k then t else join k lf j t
  | Branch { prefix = p; bit = m; l; r; _ } ->
      if match_prefix k p m then
        if zero_bit k m then begin
          let l' = insert lf l in
          if l' == l then t else branch p m l' r
        end
        else begin
          let r' = insert lf r in
          if r' == r then t else branch p m l r'
        end
      else join k lf p t

let rec remove_key k t =
  match t with
  | Empty -> Empty
  | Leaf { key; _ } -> if key = k then Empty else t
  | Branch { prefix; bit; l; r; _ } ->
      if match_prefix k prefix bit then
        if zero_bit k bit then begin
          let l' = remove_key k l in
          if l' == l then t else branch0 prefix bit l' r
        end
        else begin
          let r' = remove_key k r in
          if r' == r then t else branch0 prefix bit l r'
        end
      else t

(* ------------------------------------------------------------------ *)
(* Set algebra                                                         *)

let rec union_in c s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, x | x, Empty -> x
    | (Leaf _ as lf), t -> insert lf t
    | s, (Leaf _ as lf) -> insert lf s
    | Branch sb, Branch tb -> begin
        (* Fault probe on the memoized slow path only: the cheap
           structural cases above stay probe-free. *)
        Guard.Fault.probe "worldset.op";
        let a = Int.min sb.uid tb.uid and b = Int.max sb.uid tb.uid in
        match cache_find c c.union_c a b with
        | Some r ->
            Gpo_obs.Counter.incr c_union_hit;
            r
        | None ->
            Gpo_obs.Counter.incr c_union_miss;
            let union = union_in c in
            let r =
              if sb.bit = tb.bit && sb.prefix = tb.prefix then begin
                let l = union sb.l tb.l and r' = union sb.r tb.r in
                if l == sb.l && r' == sb.r then s
                else if l == tb.l && r' == tb.r then t
                else branch sb.prefix sb.bit l r'
              end
              else if sb.bit > tb.bit && match_prefix tb.prefix sb.prefix sb.bit
              then
                if zero_bit tb.prefix sb.bit then begin
                  let l = union sb.l t in
                  if l == sb.l then s else branch sb.prefix sb.bit l sb.r
                end
                else begin
                  let r' = union sb.r t in
                  if r' == sb.r then s else branch sb.prefix sb.bit sb.l r'
                end
              else if tb.bit > sb.bit && match_prefix sb.prefix tb.prefix tb.bit
              then
                if zero_bit sb.prefix tb.bit then begin
                  let l = union s tb.l in
                  if l == tb.l then t else branch tb.prefix tb.bit l tb.r
                end
                else begin
                  let r' = union s tb.r in
                  if r' == tb.r then t else branch tb.prefix tb.bit tb.l r'
                end
              else join sb.prefix s tb.prefix t
            in
            cache_store c.union_c a b r;
            r
      end

let rec inter_in c s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, _ | _, Empty -> Empty
    | (Leaf { key; _ } as lf), t -> if mem_key key t then lf else Empty
    | s, (Leaf { key; _ } as lf) -> if mem_key key s then lf else Empty
    | Branch sb, Branch tb -> begin
        let a = Int.min sb.uid tb.uid and b = Int.max sb.uid tb.uid in
        match cache_find c c.inter_c a b with
        | Some r ->
            Gpo_obs.Counter.incr c_inter_hit;
            r
        | None ->
            Gpo_obs.Counter.incr c_inter_miss;
            let inter = inter_in c in
            let r =
              if sb.bit = tb.bit && sb.prefix = tb.prefix then begin
                let l = inter sb.l tb.l and r' = inter sb.r tb.r in
                (* Subset detection: a rebuild that reproduces an operand
                   returns it physically. *)
                if l == sb.l && r' == sb.r then s
                else if l == tb.l && r' == tb.r then t
                else branch0 sb.prefix sb.bit l r'
              end
              else if sb.bit > tb.bit && match_prefix tb.prefix sb.prefix sb.bit
              then inter (if zero_bit tb.prefix sb.bit then sb.l else sb.r) t
              else if tb.bit > sb.bit && match_prefix sb.prefix tb.prefix tb.bit
              then inter s (if zero_bit sb.prefix tb.bit then tb.l else tb.r)
              else Empty
            in
            cache_store c.inter_c a b r;
            r
      end

let rec diff_in c s t =
  if s == t then Empty
  else
    match (s, t) with
    | Empty, _ -> Empty
    | s, Empty -> s
    | (Leaf { key; _ } as lf), t -> if mem_key key t then Empty else lf
    | s, Leaf { key; _ } -> remove_key key s
    | Branch sb, Branch tb -> begin
        match cache_find c c.diff_c sb.uid tb.uid with
        | Some r ->
            Gpo_obs.Counter.incr c_diff_hit;
            r
        | None ->
            Gpo_obs.Counter.incr c_diff_miss;
            let diff = diff_in c in
            let r =
              if sb.bit = tb.bit && sb.prefix = tb.prefix then begin
                let l = diff sb.l tb.l and r' = diff sb.r tb.r in
                if l == sb.l && r' == sb.r then s else branch0 sb.prefix sb.bit l r'
              end
              else if sb.bit > tb.bit && match_prefix tb.prefix sb.prefix sb.bit
              then
                if zero_bit tb.prefix sb.bit then begin
                  let l = diff sb.l t in
                  if l == sb.l then s else branch0 sb.prefix sb.bit l sb.r
                end
                else begin
                  let r' = diff sb.r t in
                  if r' == sb.r then s else branch0 sb.prefix sb.bit sb.l r'
                end
              else if tb.bit > sb.bit && match_prefix sb.prefix tb.prefix tb.bit
              then diff s (if zero_bit sb.prefix tb.bit then tb.l else tb.r)
              else s
            in
            cache_store c.diff_c sb.uid tb.uid r;
            r
      end

let union s t = union_in (local_caches ()) s t
let inter s t = inter_in (local_caches ()) s t
let diff s t = diff_in (local_caches ()) s t

let rec subset s t =
  s == t
  ||
  match (s, t) with
  | Empty, _ -> true
  | _, Empty -> false
  | Leaf { key; _ }, t -> mem_key key t
  | Branch _, Leaf _ -> false
  | Branch sb, Branch tb ->
      if sb.bit = tb.bit && sb.prefix = tb.prefix then
        subset sb.l tb.l && subset sb.r tb.r
      else if sb.bit < tb.bit && match_prefix sb.prefix tb.prefix tb.bit then
        subset s (if zero_bit sb.prefix tb.bit then tb.l else tb.r)
      else false

let filter_member tr s =
  let c = local_caches () in
  let rec go s =
    match s with
    | Empty -> Empty
    | Leaf { w; _ } -> if B.mem tr w then s else Empty
    | Branch b -> begin
        match cache_find c c.filter_c tr b.uid with
        | Some r ->
            Gpo_obs.Counter.incr c_filter_hit;
            r
        | None ->
            Gpo_obs.Counter.incr c_filter_miss;
            let l = go b.l and r' = go b.r in
            let r = if l == b.l && r' == b.r then s else branch0 b.prefix b.bit l r' in
            cache_store c.filter_c tr b.uid r;
            r
      end
  in
  go s

(* ------------------------------------------------------------------ *)
(* The rest of the signature                                           *)

let empty = Empty
let is_empty = function Empty -> true | _ -> false
let singleton w = leaf w
let add w t = insert (leaf w) t

let mem w t =
  match t with Empty -> false | _ -> mem_key (B.id (B.intern w)) t

let equal a b = a == b
let compare a b = Int.compare (uid a) (uid b)
let hash t = (uid t * 2654435761) land max_int

(* Content-minimal element: trie order is interning order, which
   depends on the global interleaving of [Bitset.intern] calls, so the
   leftmost leaf would differ run-to-run under parallel interning.  The
   minimum by [Bitset.compare] is a pure function of the set's
   contents. *)
let rec choose = function
  | Empty -> raise Not_found
  | Leaf { w; _ } -> w
  | Branch { l; r; _ } ->
      let a = choose l and b = choose r in
      if B.compare a b <= 0 then a else b

let rec iter f = function
  | Empty -> ()
  | Leaf { w; _ } -> f w
  | Branch { l; r; _ } ->
      iter f l;
      iter f r

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf { w; _ } -> f w acc
  | Branch { l; r; _ } -> fold f r (fold f l acc)

(* One descent of [r]'s trie carrying only the undecided sets, each cut
   down to its part under the current node.  Every [sets.(i)] is a
   subset of [r], so a part that is neither empty nor the whole subtree
   (physically: both are canonical) splits along the node's branching
   bit; a leaf always decides, since its only subsets are itself and
   [Empty]. *)
let iter_uniform f r sets =
  let rec go node members undecided =
    let members = ref members and open_ = ref [] in
    List.iter
      (fun ((i, part) as d) ->
        if part == node then members := B.add i !members
        else if part != Empty then open_ := d :: !open_)
      undecided;
    match (!open_, node) with
    | [], _ -> f node !members
    | open_, Branch { bit; l; r; _ } ->
        let left = ref [] and right = ref [] in
        List.iter
          (fun ((i, part) as d) ->
            match part with
            | Branch q when q.bit = bit ->
                left := (i, q.l) :: !left;
                right := (i, q.r) :: !right
            | Branch { prefix = k; _ } | Leaf { key = k; _ } ->
                if zero_bit k bit then left := d :: !left else right := d :: !right
            | Empty -> ())
          open_;
        go l !members !left;
        go r !members !right
    | _ :: _, (Empty | Leaf _) ->
        invalid_arg "World_set.iter_uniform: not a subset"
  in
  if r != Empty then
    go r
      (B.empty (Array.length sets))
      (List.mapi (fun i part -> (i, part)) (Array.to_list sets))

let rec for_all p = function
  | Empty -> true
  | Leaf { w; _ } -> p w
  | Branch { l; r; _ } -> for_all p l && for_all p r

let rec exists p = function
  | Empty -> false
  | Leaf { w; _ } -> p w
  | Branch { l; r; _ } -> exists p l || exists p r

let elements t =
  (* Trie order is interning order; sort so the listing is a function
     of the contents (and [pp] stays deterministic). *)
  List.sort B.compare (fold (fun w acc -> w :: acc) t [])

(* Bottom-up: the worlds are interned once and sorted by key, and each
   trie node is consed once.  Splitting a sorted run of keys at the
   highest bit on which its ends differ yields exactly the canonical
   trie that inserting the worlds one by one would. *)
let of_list worlds =
  (* Equal worlds intern to one leaf. *)
  let leaves =
    Array.of_list
      (List.sort_uniq
         (fun a b -> Int.compare (B.id a) (B.id b))
         (List.map B.intern worlds))
  in
  let key i = B.id leaves.(i) in
  let rec build lo hi =
    if hi - lo = 1 then leaf leaves.(lo)
    else begin
      let bit = branching_bit (key lo) (key (hi - 1)) in
      let mid = ref lo in
      while zero_bit (key !mid) bit do incr mid done;
      branch (mask (key lo) bit) bit (build lo !mid) (build !mid hi)
    end
  in
  if Array.length leaves = 0 then Empty else build 0 (Array.length leaves)

(* One pass: the product's worlds are plain bit-set unions, and only
   the final ones are interned (two factors may union to the same
   world; [of_list] keeps one). *)
let product width factors =
  of_list
    (List.fold_left
       (fun prefixes factor ->
         List.concat_map
           (fun prefix -> fold (fun w out -> B.union prefix w :: out) factor [])
           prefixes)
       [ B.empty width ] factors)

let pp ?name () ppf ws =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (B.pp ?name ()))
    (elements ws)

let clear_caches () =
  (* Bump the generation so every other domain resets its local tables
     the next time it touches them; the caller's tables are dropped
     immediately. *)
  Atomic.incr cache_gen;
  let c = Domain.DLS.get caches_key in
  c.gen <- Atomic.get cache_gen;
  reset_caches c

let rec advance_node_ids n =
  let cur = Atomic.get next_uid in
  if cur < n && not (Atomic.compare_and_set next_uid cur n) then advance_node_ids n

(* Under memory pressure the memo tables are the recoverable ballast:
   dropping them costs recomputation, not correctness. *)
let () = Guard.on_memory_pressure clear_caches
