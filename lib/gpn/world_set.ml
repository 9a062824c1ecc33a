(* Hash-consed world sets: zero-suppressed decision diagrams.

   A world set is a zero-suppressed decision diagram (ZDD; Minato, DAC
   1993) over transition variables.  A node [{var; lo; hi}] stands for
   the worlds of [lo], which lack the node's transition, and those of
   [hi] with the transition added.  [Empty] is the empty set and [Top]
   the set holding only the empty world, of its bit-set width.  A node
   whose [hi] is [Empty] is its [lo] (zero suppression), so a transition
   no world holds costs no node, and a product of independent choices
   is a chain of nodes rather than a leaf per world.

   Variables follow [Petri.Bitset.compare]: word 0 first, and within a
   word the sign bit first, then the other bits from the highest down.
   Descending the diagram in that order with [hi] first at a sign bit
   and [lo] first elsewhere meets the worlds in increasing
   [Bitset.compare] order, so [choose] is one path and [elements] comes
   sorted.

   Nodes are hash-consed through a weak unique table, so:

   - structurally equal sets are physically equal ([equal] is [==]);
   - [hash] and [compare] read a stored per-node id (O(1));
   - [cardinal] is stored in every node (O(1));
   - the set algebra ([union]/[inter]/[diff]/[filter_member] and the
     join of [product]) is memoized in one fixed-size computed table
     keyed on the operation and both node ids, and a rebuild that
     reproduces an operand returns the operand itself.

   The unique table is weak: nodes unreachable from any live state are
   reclaimed by the GC, so long exploration runs do not accumulate
   garbage canonical forms.  The computed table is strong but has a
   fixed number of slots, each overwritten by the next store to it. *)

module B = Petri.Bitset

type world = B.t

type t =
  | Empty
  | Top of { width : int; uid : int }
  | Node of { var : int; lo : t; hi : t; uid : int; card : int }

let uid = function Empty -> 0 | Top x -> x.uid | Node n -> n.uid
let cardinal = function Empty -> 0 | Top _ -> 1 | Node n -> n.card

(* ------------------------------------------------------------------ *)
(* The variable order                                                  *)

let word_bits = Sys.int_size

(* Transition [w * word_bits + b] is variable [w * word_bits +
   (word_bits - 1 - b)]: words in order, and within a word the sign bit
   (level 0 of the word) first.  The map is its own inverse. *)
let level t =
  let b = t mod word_bits in
  t - b + (word_bits - 1 - b)

let transition = level

(* At a sign bit the worlds holding the transition are the smaller. *)
let sign_bit var = var mod word_bits = 0

(* Terminals sit below every variable. *)
let var = function Node n -> n.var | Empty | Top _ -> max_int

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)

module Node_hash = struct
  type nonrec t = t

  (* Children are already canonical when a candidate is built, so
     physical equality on them decides structural equality. *)
  let equal a b =
    match (a, b) with
    | Top x, Top y -> x.width = y.width
    | Node x, Node y -> x.var = y.var && x.lo == y.lo && x.hi == y.hi
    | _ -> false

  let hash = function
    | Empty -> 0
    | Top x -> (x.width * 2654435761) land max_int
    | Node x ->
        (((x.var * 486187739) + uid x.lo) * 486187739 + uid x.hi) land max_int
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

let top width = hashcons (Top { width; uid = fresh_uid () })

let node var lo hi =
  if hi == Empty then lo
  else
    hashcons
      (Node { var; lo; hi; uid = fresh_uid (); card = cardinal lo + cardinal hi })

(* [node] for a rebuild of [s]: unchanged children give [s] back
   without a probe of the unique table. *)
let rebuild s var lo hi =
  match s with
  | Node n when n.lo == lo && n.hi == hi -> s
  | _ -> node var lo hi

(* ------------------------------------------------------------------ *)
(* The computed table                                                  *)

(* The set algebra shares one process-wide computed table, the op cache
   of decision-diagram packages (Brace, Rudell & Bryant, DAC 1990): a
   fixed array of immutable entries indexed by a hash of the operation
   and both operand ids (for [filter_member], the transition and the
   node id).  A store overwrites its slot and a lookup that finds
   another key misses: there is no eviction policy.  Node ids are never
   reused and a key keeps both (past 2^31 ids a pair no longer packs
   into one int), so an entry can miss but never alias.

   Domains share the table without a lock.  An entry is published by
   one array store and OCaml 5 bounds data races, so a lookup reads
   some entry that was actually stored; it checks the whole key, and
   every result is a canonical node, so a hit computed on any domain is
   right.  A lost entry costs recomputation only.  The first store
   allocates the array, so a process that never runs the set algebra
   pays nothing; if two domains allocate at once, one array wins and
   the other's entries are lost.  Every operation on a node goes
   through the table: without it an operation on a diagram would visit
   each node once per path to it. *)

type entry = { op : int; a : int; b : int; result : t }

let op_union = 0 and op_inter = 1 and op_diff = 2 and op_filter = 3
and op_join = 4

let table_size = 1 lsl 16
let no_entry = { op = -1; a = 0; b = 0; result = Empty }
let table = ref [||]

let slot op a b =
  let h = ((((a * 0x9E3779B1) + b) * 0x85EBCA77) + op) land max_int in
  (h lxor (h lsr 32)) land (table_size - 1)

let lookup op a b =
  let tbl = !table in
  if Array.length tbl = 0 then None
  else
    let e = tbl.(slot op a b) in
    if e.a = a && e.b = b && e.op = op then Some e.result else None

let store op a b result =
  let tbl =
    match !table with
    | [||] -> let t = Array.make table_size no_entry in table := t; t
    | t -> t
  in
  tbl.(slot op a b) <- { op; a; b; result }

let c_union_hit = Gpo_obs.Counter.make "worldset.union.cache_hit"
let c_union_miss = Gpo_obs.Counter.make "worldset.union.cache_miss"
let c_inter_hit = Gpo_obs.Counter.make "worldset.inter.cache_hit"
let c_inter_miss = Gpo_obs.Counter.make "worldset.inter.cache_miss"
let c_diff_hit = Gpo_obs.Counter.make "worldset.diff.cache_hit"
let c_diff_miss = Gpo_obs.Counter.make "worldset.diff.cache_miss"
let c_filter_hit = Gpo_obs.Counter.make "worldset.filter.cache_hit"
let c_filter_miss = Gpo_obs.Counter.make "worldset.filter.cache_miss"

let touch_stats () =
  List.iter Gpo_obs.Counter.touch
    [ c_nodes; c_union_hit; c_union_miss; c_inter_hit; c_inter_miss;
      c_diff_hit; c_diff_miss; c_filter_hit; c_filter_miss ]

(* [memo op counters a b compute]: the table's answer for the key, or
   [compute ()] stored under it; [counters] are the hit and miss
   counters of the operation, if it has them. *)
let memo op counters a b compute =
  match lookup op a b with
  | Some r ->
      Option.iter (fun (hit, _) -> Gpo_obs.Counter.incr hit) counters;
      r
  | None ->
      Option.iter (fun (_, miss) -> Gpo_obs.Counter.incr miss) counters;
      let r = compute () in
      store op a b r;
      r

let union_counters = Some (c_union_hit, c_union_miss)
let inter_counters = Some (c_inter_hit, c_inter_miss)
let diff_counters = Some (c_diff_hit, c_diff_miss)
let filter_counters = Some (c_filter_hit, c_filter_miss)

(* ------------------------------------------------------------------ *)
(* Set algebra                                                         *)

(* The terminal at the end of the [lo] chain: [Top] when the set
   holds the empty world. *)
let rec lo_end = function Node n -> lo_end n.lo | t -> t

let rec union s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, x | x, Empty -> x
    | Top _, Top _ -> invalid_arg "World_set.union: worlds of different widths"
    | _ ->
        (* Fault probe on the memoized slow path only: the cheap
           structural cases above stay probe-free. *)
        Guard.Fault.probe "worldset.op";
        memo op_union union_counters (Int.min (uid s) (uid t))
          (Int.max (uid s) (uid t))
        @@ fun () ->
        match (s, t) with
        | Node a, _ when a.var < var t -> rebuild s a.var (union a.lo t) a.hi
        | _, Node b when b.var < var s -> rebuild t b.var (union s b.lo) b.hi
        | Node a, Node b ->
            let lo = union a.lo b.lo and hi = union a.hi b.hi in
            if lo == b.lo && hi == b.hi then t else rebuild s a.var lo hi
        | _ -> assert false

let rec inter s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, _ | _, Empty | Top _, Top _ -> Empty
    | (Top _ as e), x | x, (Top _ as e) -> if lo_end x == e then e else Empty
    | Node a, Node b ->
        memo op_inter inter_counters (Int.min a.uid b.uid) (Int.max a.uid b.uid)
        @@ fun () ->
        if a.var < b.var then inter a.lo t
        else if b.var < a.var then inter s b.lo
        else begin
          let lo = inter a.lo b.lo and hi = inter a.hi b.hi in
          if lo == b.lo && hi == b.hi then t else rebuild s a.var lo hi
        end

let rec diff s t =
  if s == t then Empty
  else
    match (s, t) with
    | Empty, _ -> Empty
    | s, Empty -> s
    | Top _, t -> if lo_end t == s then Empty else s
    | Node a, _ ->
        memo op_diff diff_counters a.uid (uid t) @@ fun () ->
        if a.var < var t then rebuild s a.var (diff a.lo t) a.hi
        else begin
          match t with
          | Node b when b.var < a.var -> diff s b.lo
          | Node b -> rebuild s a.var (diff a.lo b.lo) (diff a.hi b.hi)
          | Empty | Top _ -> assert false
        end

let subset s t = s == t || diff s t == Empty

(* The worlds holding [tr]: above its variable the diagram is rebuilt,
   at it only the [hi] side stays, and below it no world holds [tr]. *)
let filter_member tr s =
  let l = level tr in
  let rec go s =
    match s with
    | Empty | Top _ -> Empty
    | Node n when n.var > l -> Empty
    | Node n when n.var = l && n.lo == Empty -> s
    | Node n ->
        memo op_filter filter_counters tr n.uid @@ fun () ->
        if n.var = l then node l Empty n.hi else rebuild s n.var (go n.lo) (go n.hi)
  in
  go s

(* Minato's join: the unions [a ∪ b] of a world of [s] and one of [t].
   [poll] runs once per node the join conses. *)
let rec join poll s t =
  match (s, t) with
  | Empty, _ | _, Empty -> Empty
  | Top _, x | x, Top _ -> x
  | Node a, Node b ->
      memo op_join None (Int.min a.uid b.uid) (Int.max a.uid b.uid) @@ fun () ->
      let mk var lo hi = poll (); node var lo hi in
      if a.var < b.var then mk a.var (join poll a.lo t) (join poll a.hi t)
      else if b.var < a.var then mk b.var (join poll s b.lo) (join poll s b.hi)
      else
        mk a.var (join poll a.lo b.lo)
          (union (join poll a.hi b.hi)
             (union (join poll a.hi b.lo) (join poll a.lo b.hi)))

(* ------------------------------------------------------------------ *)
(* Worlds                                                              *)

(* [prefix] plus the content-least world of [t]: at a sign bit the
   worlds with the transition are the smaller, elsewhere those without
   it, if any. *)
let least prefix t =
  let rec go t acc =
    match t with
    | Empty -> raise Not_found
    | Top x ->
        let b = B.Buf.create x.width in
        List.iter (B.Buf.add b) acc;
        B.Buf.freeze b
    | Node n ->
        if sign_bit n.var || n.lo == Empty then go n.hi (transition n.var :: acc)
        else go n.lo acc
  in
  go t prefix

let choose t = least [] t

let rec width_of = function
  | Empty -> 0
  | Top x -> x.width
  | Node n -> width_of n.hi

(* The worlds in increasing [Bitset.compare] order, built in one buffer
   along the descent. *)
let iter f t =
  let buf = B.Buf.create (width_of t) in
  let rec go = function
    | Empty -> ()
    | Top _ -> f (B.Buf.freeze buf)
    | Node n ->
        let tr = transition n.var in
        let with_ () =
          B.Buf.add buf tr;
          go n.hi;
          B.Buf.remove buf tr
        in
        if sign_bit n.var then begin
          with_ ();
          go n.lo
        end
        else begin
          go n.lo;
          with_ ()
        end
  in
  go t

let fold f t acc =
  let acc = ref acc in
  iter (fun w -> acc := f w !acc) t;
  !acc

let exists p t =
  let exception Found in
  try
    iter (fun w -> if p w then raise Found) t;
    false
  with Found -> true

let for_all p t = not (exists (fun w -> not (p w)) t)

let elements t = List.rev (fold List.cons t [])

(* Follow the world's transitions; it is a member when the path ends
   at [Top] having taken a [hi] edge for every one of them. *)
let mem w t =
  let width = B.width w in
  let rec go t taken =
    match t with
    | Empty -> false
    | Top x -> x.width = width && taken = B.cardinal w
    | Node n ->
        let tr = transition n.var in
        if tr < width && B.mem tr w then go n.hi (taken + 1) else go n.lo taken
  in
  go t 0

(* One variable at a time over the sorted distinct worlds: the ones
   without the variable's transition go [lo], the others [hi]. *)
let of_list worlds =
  match List.sort_uniq B.compare worlds with
  | [] -> Empty
  | w :: _ as worlds ->
      let width = B.width w in
      if List.exists (fun v -> B.width v <> width) worlds then
        invalid_arg "World_set.of_list: worlds of different widths";
      let levels = (width + word_bits - 1) / word_bits * word_bits in
      let one = top width in
      let rec build worlds lvl =
        match worlds with
        | [] -> Empty
        | [ _ ] when lvl >= levels -> one
        | _ ->
            let tr = transition lvl in
            if tr >= width then build worlds (lvl + 1)
            else begin
              let with_, without = List.partition (B.mem tr) worlds in
              node lvl (build without (lvl + 1)) (build with_ (lvl + 1))
            end
      in
      build worlds 0

let empty = Empty
let is_empty = function Empty -> true | _ -> false
let singleton w = of_list [ w ]
let add w t = union (singleton w) t

let equal a b = a == b
let compare a b = Int.compare (uid a) (uid b)
let hash t = (uid t * 2654435761) land max_int

(* ------------------------------------------------------------------ *)
(* Denotation cuts                                                     *)

type 'a cuts = Nothing | Cut of 'a | Split of int * 'a cuts * 'a cuts

(* One descent of [r] carrying only the undecided sets, each cut down
   to its part under the current node.  A part is a subset of the node,
   so it is decided when it is [Empty] or the node itself (physically:
   both are canonical), and otherwise splits along the node's variable.
   Sets that are the same node go down as one group, and the marking of
   the decided ones lives in one buffer, marked on the way down and
   cleared on the way back. *)
let iter_uniform f r sets =
  let marking = B.Buf.create (Array.length sets) in
  let groups = Hashtbl.create 16 in
  Array.iteri
    (fun i part ->
      if part != Empty then
        match Hashtbl.find_opt groups (uid part) with
        | Some (_, members) -> members := i :: !members
        | None -> Hashtbl.add groups (uid part) (part, ref [ i ]))
    sets;
  let rec go node undecided =
    if node == Empty then Nothing
    else begin
      let marked = ref [] and open_ = ref [] in
      List.iter
        (fun ((part, members) as g) ->
          if part == node then begin
            List.iter (B.Buf.add marking) members;
            marked := members :: !marked
          end
          else if part != Empty then open_ := g :: !open_)
        undecided;
      let cuts =
        match (!open_, node) with
        | [], _ -> Cut (f (B.Buf.freeze marking))
        | open_, Node n ->
            let lo = ref [] and hi = ref [] in
            List.iter
              (fun ((part, members) as g) ->
                match part with
                | Node q when q.var = n.var ->
                    lo := (q.lo, members) :: !lo;
                    hi := (q.hi, members) :: !hi
                | _ -> lo := g :: !lo)
              open_;
            (* Content order: at a sign bit the [hi] side first. *)
            if sign_bit n.var then begin
              let with_ = go n.hi !hi in
              Split (transition n.var, go n.lo !lo, with_)
            end
            else begin
              let without = go n.lo !lo in
              Split (transition n.var, without, go n.hi !hi)
            end
        | _ :: _, (Empty | Top _) -> invalid_arg "World_set.iter_uniform: not a subset"
      in
      List.iter (List.iter (B.Buf.remove marking)) !marked;
      cuts
    end
  in
  go r (Hashtbl.fold (fun _ (part, members) acc -> (part, !members) :: acc) groups [])

(* [q] splits along the cuts as [r] did: at a split the part's top
   variable is the split's or a later one. *)
let iter_cuts f cuts q =
  let rec go cuts q prefix =
    if q != Empty then
      match cuts with
      | Nothing -> invalid_arg "World_set.iter_cuts: not a subset"
      | Cut x -> f x (cardinal q) (fun () -> least prefix q)
      | Split (tr, without, with_) ->
          let l = level tr in
          let q0, q1 =
            match q with
            | Node n when n.var = l -> (n.lo, n.hi)
            | Node n when n.var < l -> invalid_arg "World_set.iter_cuts: not a subset"
            | _ -> (q, Empty)
          in
          if sign_bit l then begin
            go with_ q1 (tr :: prefix);
            go without q0 prefix
          end
          else begin
            go without q0 prefix;
            go with_ q1 (tr :: prefix)
          end
  in
  go cuts q []

(* ------------------------------------------------------------------ *)
(* Products                                                            *)

(* The join of the factors, from the set of the empty world.  The guard
   is polled once per 4 096 nodes the join conses, so a product built
   in milliseconds never polls. *)
let product ?guard width factors =
  let made = ref 0 in
  let poll () =
    incr made;
    if !made land 4095 = 0 then Guard.check_now ?guard ()
  in
  List.fold_left (join poll) (top width) factors

let pp ?name () ppf ws =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (B.pp ?name ()))
    (elements ws)

(* Every domain reads the one table, so dropping it reaches them all;
   the next store allocates a fresh one. *)
let clear_caches () = table := [||]

let rec advance_node_ids n =
  let cur = Atomic.get next_uid in
  if cur < n && not (Atomic.compare_and_set next_uid cur n) then advance_node_ids n

(* Under memory pressure the computed table is the recoverable
   ballast: dropping it costs recomputation, not correctness. *)
let () = Guard.on_memory_pressure clear_caches
