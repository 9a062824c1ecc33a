type t = Zero | One | Node of { var : int; low : t; high : t; id : int }

let id = function Zero -> 0 | One -> 1 | Node n -> n.id

module Unique_key = struct
  type t = int * int * int (* var, low id, high id *)

  let equal (a, b, c) (a', b', c') = a = a' && b = b' && c = c'
  let hash (a, b, c) = (((a * 486187739) + b) * 486187739) + c
end

module Unique = Hashtbl.Make (Unique_key)

module Cache_key = struct
  type t = int * int * int (* op tag, id1, id2 *)

  let equal (a, b, c) (a', b', c') = a = a' && b = b' && c = c'
  let hash (a, b, c) = (((a * 2654435761) + b) * 2654435761) + c
end

module Cache = Hashtbl.Make (Cache_key)

(* Telemetry: memoization effectiveness of the two operation caches and
   unique-table growth.  Bare counter increments — these sit on the
   hottest paths of the symbolic engine, and an increment is noise next
   to the hash-table probe it annotates. *)
let c_apply_hit = Gpo_obs.Counter.make "bdd.apply.cache_hit"
let c_apply_miss = Gpo_obs.Counter.make "bdd.apply.cache_miss"
let c_ite_hit = Gpo_obs.Counter.make "bdd.ite.cache_hit"
let c_ite_miss = Gpo_obs.Counter.make "bdd.ite.cache_miss"
let c_nodes_created = Gpo_obs.Counter.make "bdd.nodes.created"

type manager = {
  unique : t Unique.t;
  mutable next_id : int;
  mutable peak : int;
  cache : t Cache.t;  (* binary ops and not *)
  ite_cache : (int, t) Hashtbl.t;  (* key: three node ids packed into one int *)
}

(* The ite cache key packs (id i, id t, id e) into a single immediate
   int — 21 bits per id — so probing neither allocates a tuple nor
   chases three boxed fields per comparison.  Node ids are dense from 0,
   so the guard only trips past two million live-or-dead nodes; beyond
   that [ite] still computes correctly, just without memoization. *)
let ite_pack_bits = 21
let ite_pack_limit = 1 lsl ite_pack_bits

let ite_pack i t e =
  (((i lsl ite_pack_bits) lor t) lsl ite_pack_bits) lor e

let manager () =
  {
    unique = Unique.create 4096;
    next_id = 2;
    peak = 2;
    cache = Cache.create 4096;
    ite_cache = Hashtbl.create 1024;
  }

let zero _ = Zero
let one _ = One
let is_zero t = t == Zero
let is_one t = t == One
let equal a b = a == b

let mk m var low high =
  if low == high then low
  else begin
    let key = (var, id low, id high) in
    match Unique.find_opt m.unique key with
    | Some node -> node
    | None ->
        Gpo_obs.Counter.incr c_nodes_created;
        let node = Node { var; low; high; id = m.next_id } in
        m.next_id <- m.next_id + 1;
        Unique.add m.unique key node;
        let live = Unique.length m.unique + 2 in
        if live > m.peak then m.peak <- live;
        node
  end

let var m v =
  if v < 0 then invalid_arg "Bdd.var: negative variable";
  mk m v Zero One

let nvar m v =
  if v < 0 then invalid_arg "Bdd.nvar: negative variable";
  mk m v One Zero

(* Operation tags for the shared binary cache. *)
let tag_and = 0
let tag_or = 1
let tag_xor = 2
let tag_not = 3

let top_var a b =
  match (a, b) with
  | Node x, Node y -> min x.var y.var
  | Node x, _ | _, Node x -> x.var
  | _ -> invalid_arg "Bdd.top_var: two leaves"

let cofactors v = function
  | Node n when n.var = v -> (n.low, n.high)
  | t -> (t, t)

let rec not_ m t =
  match t with
  | Zero -> One
  | One -> Zero
  | Node n -> begin
      let key = (tag_not, n.id, 0) in
      match Cache.find_opt m.cache key with
      | Some r ->
          Gpo_obs.Counter.incr c_apply_hit;
          r
      | None ->
          Gpo_obs.Counter.incr c_apply_miss;
          let r = mk m n.var (not_ m n.low) (not_ m n.high) in
          Cache.add m.cache key r;
          r
    end

let rec apply m tag f_leaf a b =
  match f_leaf a b with
  | Some r -> r
  | None -> begin
      let ia = id a and ib = id b in
      (* and/or/xor are commutative: canonicalize the key. *)
      let key = if ia <= ib then (tag, ia, ib) else (tag, ib, ia) in
      match Cache.find_opt m.cache key with
      | Some r ->
          Gpo_obs.Counter.incr c_apply_hit;
          r
      | None ->
          Gpo_obs.Counter.incr c_apply_miss;
          let v = top_var a b in
          let a0, a1 = cofactors v a and b0, b1 = cofactors v b in
          let r = mk m v (apply m tag f_leaf a0 b0) (apply m tag f_leaf a1 b1) in
          Cache.add m.cache key r;
          r
    end

let and_leaf a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Some Zero
  | One, x | x, One -> Some x
  | x, y when x == y -> Some x
  | _ -> None

let or_leaf a b =
  match (a, b) with
  | One, _ | _, One -> Some One
  | Zero, x | x, Zero -> Some x
  | x, y when x == y -> Some x
  | _ -> None

let xor_leaf a b =
  match (a, b) with
  | Zero, x | x, Zero -> Some x
  | x, y when x == y -> Some Zero
  | _ -> None

let and_ m a b = apply m tag_and and_leaf a b
let or_ m a b = apply m tag_or or_leaf a b

let xor_ m a b =
  match (a, b) with
  | One, x | x, One -> not_ m x
  | _ -> apply m tag_xor xor_leaf a b

let iff m a b = not_ m (xor_ m a b)

let ite m i t e =
  let rec go i t e =
    match i with
    | One -> t
    | Zero -> e
    | _ when t == e -> t
    | _ when is_one t && is_zero e -> i
    | _ -> begin
        let cacheable = m.next_id < ite_pack_limit in
        let key = if cacheable then ite_pack (id i) (id t) (id e) else 0 in
        match if cacheable then Hashtbl.find_opt m.ite_cache key else None with
        | Some r ->
            Gpo_obs.Counter.incr c_ite_hit;
            r
        | None ->
            Gpo_obs.Counter.incr c_ite_miss;
            let v =
              List.fold_left
                (fun acc n -> match n with Node x -> min acc x.var | _ -> acc)
                max_int [ i; t; e ]
            in
            let i0, i1 = cofactors v i in
            let t0, t1 = cofactors v t in
            let e0, e1 = cofactors v e in
            let r = mk m v (go i0 t0 e0) (go i1 t1 e1) in
            if cacheable then Hashtbl.add m.ite_cache key r;
            r
      end
  in
  go i t e

let conj m ts = List.fold_left (and_ m) One ts
let disj m ts = List.fold_left (or_ m) Zero ts

(* Quantification uses per-call memo tables: the quantified variable set
   changes between calls, so the global cache cannot be reused. *)
let exists m vars t =
  let in_vars = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_vars v ()) vars;
  let memo = Hashtbl.create 256 in
  let rec go t =
    match t with
    | Zero | One -> t
    | Node n -> begin
        match Hashtbl.find_opt memo n.id with
        | Some r -> r
        | None ->
            let r =
              if Hashtbl.mem in_vars n.var then or_ m (go n.low) (go n.high)
              else mk m n.var (go n.low) (go n.high)
            in
            Hashtbl.add memo n.id r;
            r
      end
  in
  go t

let and_exists m vars f g =
  let in_vars = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_vars v ()) vars;
  let memo = Hashtbl.create 256 in
  let rec go f g =
    match and_leaf f g with
    | Some r -> if r == Zero || r == One then r else quantify_rest r
    | None -> begin
        let ia = id f and ib = id g in
        let key = if ia <= ib then (ia, ib) else (ib, ia) in
        match Hashtbl.find_opt memo key with
        | Some r -> r
        | None ->
            let v = top_var f g in
            let f0, f1 = cofactors v f and g0, g1 = cofactors v g in
            let r0 = go f0 g0 and r1 = go f1 g1 in
            let r = if Hashtbl.mem in_vars v then or_ m r0 r1 else mk m v r0 r1 in
            Hashtbl.add memo key r;
            r
      end
  and quantify_rest t =
    (* [and_leaf] short-circuited to a single operand that may still
       contain quantified variables. *)
    exists m (Hashtbl.fold (fun v () acc -> v :: acc) in_vars []) t
  in
  go f g

let rename_monotone m f t =
  let memo = Hashtbl.create 256 in
  let rec go t =
    match t with
    | Zero | One -> t
    | Node n -> begin
        match Hashtbl.find_opt memo n.id with
        | Some r -> r
        | None ->
            let r = mk m (f n.var) (go n.low) (go n.high) in
            Hashtbl.add memo n.id r;
            r
      end
  in
  go t

let restrict m v b t =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match t with
    | Zero | One -> t
    | Node n when n.var > v -> t
    | Node n when n.var = v -> if b then n.high else n.low
    | Node n -> begin
        match Hashtbl.find_opt memo n.id with
        | Some r -> r
        | None ->
            let r = mk m n.var (go n.low) (go n.high) in
            Hashtbl.add memo n.id r;
            r
      end
  in
  go t

let rec eval t assignment =
  match t with
  | Zero -> false
  | One -> true
  | Node n -> eval (if assignment n.var then n.high else n.low) assignment

let sat_count _m n_vars t =
  let memo = Hashtbl.create 256 in
  (* count t = #assignments of variables in [var(t), n_vars) satisfying t,
     scaled afterwards for the variables above the root. *)
  let rec count t =
    match t with
    | Zero -> 0.0
    | One -> 1.0
    | Node n -> begin
        match Hashtbl.find_opt memo n.id with
        | Some c -> c
        | None ->
            let scale child =
              let gap =
                match child with
                | Node c -> c.var - n.var - 1
                | Zero | One -> n_vars - n.var - 1
              in
              ldexp (count child) gap
            in
            let c = scale n.low +. scale n.high in
            Hashtbl.add memo n.id c;
            c
      end
  in
  match t with
  | Zero -> 0.0
  | One -> ldexp 1.0 n_vars
  | Node n -> ldexp (count t) n.var

let any_sat t =
  let rec go t acc =
    match t with
    | Zero -> raise Not_found
    | One -> List.rev acc
    | Node n ->
        if n.low == Zero then go n.high ((n.var, true) :: acc)
        else go n.low ((n.var, false) :: acc)
  in
  go t []

let size t =
  let seen = Hashtbl.create 64 in
  let rec go t =
    match t with
    | Zero | One -> ()
    | Node n ->
        if not (Hashtbl.mem seen n.id) then begin
          Hashtbl.add seen n.id ();
          go n.low;
          go n.high
        end
  in
  go t;
  let leaves = match t with Zero | One -> 1 | Node _ -> 2 in
  Hashtbl.length seen + leaves

let live_nodes m = Unique.length m.unique + 2
let peak_nodes m = m.peak

let unique_load_factor m =
  let stats = Unique.stats m.unique in
  float_of_int stats.Hashtbl.num_bindings
  /. float_of_int (max 1 stats.Hashtbl.num_buckets)

let clear_caches m =
  Cache.reset m.cache;
  Hashtbl.reset m.ite_cache
