(* Tests for Gpn.World_set and Gpn.State: unit cases, randomized
   operation sequences checked against the stdlib's [Set.Make] over bit
   sets, and the computed table shared by every domain. *)

module B = Petri.Bitset
module W = Gpn.World_set

let w xs = B.of_list 8 xs

let test_basics () =
  let s = W.of_list [ w [ 0 ]; w [ 1; 2 ]; w [ 0 ] ] in
  Alcotest.(check int) "duplicates collapse" 2 (W.cardinal s);
  Alcotest.(check bool) "mem" true (W.mem (w [ 1; 2 ]) s);
  Alcotest.(check bool) "not mem" false (W.mem (w [ 2 ]) s);
  Alcotest.(check bool) "empty" true (W.is_empty W.empty);
  Alcotest.(check bool) "singleton" true (W.mem (w [ 3 ]) (W.singleton (w [ 3 ])))

let test_algebra () =
  let a = W.of_list [ w [ 0 ]; w [ 1 ] ] in
  let b = W.of_list [ w [ 1 ]; w [ 2 ] ] in
  Alcotest.(check int) "union" 3 (W.cardinal (W.union a b));
  Alcotest.(check int) "inter" 1 (W.cardinal (W.inter a b));
  Alcotest.(check bool) "inter content" true (W.mem (w [ 1 ]) (W.inter a b));
  Alcotest.(check int) "diff" 1 (W.cardinal (W.diff a b));
  Alcotest.(check bool) "subset" true (W.subset (W.inter a b) a);
  Alcotest.(check bool) "equal" true (W.equal (W.union a b) (W.union b a));
  Alcotest.(check bool) "hash agrees" true
    (W.hash (W.union a b) = W.hash (W.union b a))

let test_filter_member () =
  let s = W.of_list [ w [ 0; 1 ]; w [ 1; 2 ]; w [ 2; 3 ] ] in
  let with1 = W.filter_member 1 s in
  Alcotest.(check int) "two contain 1" 2 (W.cardinal with1);
  Alcotest.(check bool) "right ones" true
    (W.mem (w [ 0; 1 ]) with1 && W.mem (w [ 1; 2 ]) with1)

let test_product () =
  let f1 = W.of_list [ w [ 0 ]; w [ 1 ] ] in
  let f2 = W.of_list [ w [ 2 ]; w [ 3 ] ] in
  let p = W.product 8 [ f1; f2 ] in
  Alcotest.(check int) "2x2 product" 4 (W.cardinal p);
  Alcotest.(check bool) "contains 0+2" true (W.mem (w [ 0; 2 ]) p);
  Alcotest.(check bool) "contains 1+3" true (W.mem (w [ 1; 3 ]) p);
  let empty_product = W.product 8 [] in
  Alcotest.(check int) "empty product = {∅}" 1 (W.cardinal empty_product);
  Alcotest.(check bool) "empty world" true (W.mem (B.empty 8) empty_product)

let test_state_denotation () =
  (* Build a GPN state by hand and check the mapping of Definition 3.4. *)
  let v1 = w [ 0 ] and v2 = w [ 1 ] in
  let r = W.of_list [ v1; v2 ] in
  let m = [| W.singleton v1; W.singleton v2; r; W.empty |] in
  let s = Gpn.State.make m r in
  Alcotest.(check (list int)) "world v1 denotes {p0, p2}" [ 0; 2 ]
    (B.elements (Gpn.State.denoted_marking s v1));
  Alcotest.(check (list int)) "world v2 denotes {p1, p2}" [ 1; 2 ]
    (B.elements (Gpn.State.denoted_marking s v2));
  Alcotest.(check int) "mapping has two markings" 2
    (List.length (Gpn.State.mapping s))

let test_state_normalizes_to_r () =
  (* State.make intersects every place with r. *)
  let v1 = w [ 0 ] and v2 = w [ 1 ] in
  let r = W.singleton v1 in
  let s = Gpn.State.make [| W.of_list [ v1; v2 ] |] r in
  Alcotest.(check int) "stale world pruned" 1 (W.cardinal (Gpn.State.marking s 0))

let test_state_equality_and_hash () =
  let v1 = w [ 0 ] and v2 = w [ 1 ] in
  let r = W.of_list [ v1; v2 ] in
  let s1 = Gpn.State.make [| W.singleton v1; W.singleton v2 |] r in
  let s2 = Gpn.State.make [| W.singleton v1; W.singleton v2 |] r in
  let s3 = Gpn.State.make [| W.singleton v2; W.singleton v1 |] r in
  Alcotest.(check bool) "equal states" true (Gpn.State.equal s1 s2);
  Alcotest.(check int) "compare 0" 0 (Gpn.State.compare s1 s2);
  Alcotest.(check bool) "hash agrees" true (Gpn.State.hash s1 = Gpn.State.hash s2);
  Alcotest.(check bool) "different states differ" false (Gpn.State.equal s1 s3)

(* ------------------------------------------------------------------ *)
(* Against a reference: the stdlib's balanced-tree sets of bit sets.   *)

module R = Set.Make (B)

let width = 12

(* The widths the sessions run at: one word, two, and three.  Past one
   word, a quarter of the picks go to the words' sign bits, transitions
   62 and 125, which come first in their word's variable order and
   decide [Bitset.compare] there. *)
let widths = [ width; 70; 130 ]

let random_world ?(width = width) st =
  let signs =
    List.filter (fun b -> b < width) [ Sys.int_size - 1; (2 * Sys.int_size) - 1 ]
  in
  let pick () =
    if signs <> [] && Random.State.int st 4 = 0 then
      List.nth signs (Random.State.int st (List.length signs))
    else Random.State.int st width
  in
  let k = Random.State.int st (min width 12 + 1) in
  let w = ref (B.empty width) in
  for _ = 1 to k do
    w := B.add (pick ()) !w
  done;
  !w

let check_pair ctx (h, r) =
  if W.cardinal h <> R.cardinal r then
    Alcotest.failf "%s: cardinal %d vs %d" ctx (W.cardinal h) (R.cardinal r);
  if not (List.equal B.equal (W.elements h) (R.elements r)) then
    Alcotest.failf "%s: elements differ" ctx;
  if W.is_empty h <> R.is_empty r then Alcotest.failf "%s: is_empty differs" ctx;
  let least f x = match f x with v -> Some v | exception Not_found -> None in
  if not (Option.equal B.equal (least W.choose h) (least R.min_elt r)) then
    Alcotest.failf "%s: choose is not the least element" ctx

(* One random session: grow a pool of (world set, reference) pairs built
   by identical operations, checking observational agreement after
   every step.  The pool is a function of [seed]; the session's random
   state comes back with it. *)
let op_pool ?(width = width) seed =
  let random_world = random_world ~width in
  let st = Random.State.make [| seed |] in
  let pool = ref [| (W.empty, R.empty) |] in
  let pick () = !pool.(Random.State.int st (Array.length !pool)) in
  let push ctx (h, r) =
    check_pair ctx (h, r);
    pool := Array.append !pool [| (h, r) |]
  in
  for step = 1 to 40 do
    let ctx = Printf.sprintf "seed %d step %d" seed step in
    match Random.State.int st 7 with
    | 0 ->
        let w = random_world st in
        push ctx (W.singleton w, R.singleton w)
    | 1 ->
        let w = random_world st in
        let h, r = pick () in
        push ctx (W.add w h, R.add w r)
    | 2 ->
        let ha, ra = pick () and hb, rb = pick () in
        push ctx (W.union ha hb, R.union ra rb)
    | 3 ->
        let ha, ra = pick () and hb, rb = pick () in
        push ctx (W.inter ha hb, R.inter ra rb)
    | 4 ->
        let ha, ra = pick () and hb, rb = pick () in
        push ctx (W.diff ha hb, R.diff ra rb)
    | 5 ->
        let tr = Random.State.int st width in
        let h, r = pick () in
        push ctx (W.filter_member tr h, R.filter (B.mem tr) r)
    | _ ->
        let worlds = List.init (Random.State.int st 6) (fun _ -> random_world st) in
        push ctx (W.of_list worlds, R.of_list worlds)
  done;
  (!pool, st)

(* A session's pool, then the pairwise relations: they must agree with
   the reference, and the hash must be consistent with equality. *)
let op_session ~width seed =
  let pool, st = op_pool ~width seed in
  Array.iteri
    (fun i (ha, ra) ->
      Array.iteri
        (fun j (hb, rb) ->
          let ctx rel = Printf.sprintf "seed %d pair (%d,%d): %s" seed i j rel in
          if W.equal ha hb <> R.equal ra rb then Alcotest.failf "%s" (ctx "equal");
          if W.subset ha hb <> R.subset ra rb then Alcotest.failf "%s" (ctx "subset");
          if (W.compare ha hb = 0) <> (R.compare ra rb = 0) then
            Alcotest.failf "%s" (ctx "compare-zero");
          if W.equal ha hb && W.hash ha <> W.hash hb then
            Alcotest.failf "%s" (ctx "hash/equal"))
        pool;
      let w = random_world ~width st in
      if W.mem w ha <> R.mem w ra then
        Alcotest.failf "width %d seed %d set %d: mem differs" width seed i)
    pool

let test_ops_random () =
  List.iter
    (fun width ->
      for seed = 0 to 199 do
        op_session ~width seed
      done)
    widths

(* Cartesian products, exercised separately: the pool sets above can
   grow too large to multiply safely. *)
let r_product width factors =
  List.fold_left
    (fun acc factor ->
      R.fold
        (fun prefix out -> R.fold (fun w out -> R.add (B.union prefix w) out) factor out)
        acc R.empty)
    (R.singleton (B.empty width))
    factors

(* [product] against the reference, and against the canonical set:
   building the product's worlds in one pass must hash-cons to the
   very nodes that inserting them one by one does. *)
let check_product ctx width factors =
  let h = W.product width (List.map W.of_list factors) in
  let r = r_product width (List.map R.of_list factors) in
  check_pair ctx (h, r);
  let worlds = R.elements r in
  if not (W.equal h (W.of_list worlds)) then
    Alcotest.failf "%s: product differs from of_list" ctx;
  if not (W.equal h (List.fold_left (fun acc w -> W.add w acc) W.empty worlds))
  then Alcotest.failf "%s: product differs from repeated add" ctx;
  h

let test_products () =
  let st = Random.State.make [| 0xbeef |] in
  List.iter
    (fun width ->
      for case = 0 to 99 do
        let factors =
          List.init
            (1 + Random.State.int st 3)
            (fun _ ->
              List.init (1 + Random.State.int st 3) (fun _ -> random_world ~width st))
        in
        ignore
          (check_product (Printf.sprintf "width %d product case %d" width case) width
             factors)
      done)
    widths;
  (* r0-sized products: 8-12 two- or three-way factors over disjoint
     transition ranges, as conflict clusters are, so every choice is a
     distinct world. *)
  let wide = 36 in
  for case = 0 to 5 do
    let size = ref 1 in
    let k = 8 + Random.State.int st 5 in
    let factors =
      List.init k (fun i ->
          (* At most 4 096 worlds: three ways only while the factors
             left, two ways each, stay within the bound. *)
          let arity =
            if Random.State.bool st && !size * (3 lsl (k - i - 1)) <= 4_096 then 3
            else 2
          in
          size := !size * arity;
          (* Distinct non-empty subsets of the bits 3i, 3i+1, 3i+2. *)
          let rec pick masks =
            if List.length masks = arity then masks
            else begin
              let m = 1 + Random.State.int st 7 in
              pick (if List.mem m masks then masks else m :: masks)
            end
          in
          List.map
            (fun m ->
              B.of_list wide
                (List.filter_map
                   (fun b -> if m land (1 lsl b) <> 0 then Some ((3 * i) + b) else None)
                   [ 0; 1; 2 ]))
            (pick []))
    in
    let h = check_product (Printf.sprintf "large product %d" case) wide factors in
    Alcotest.(check int) (Printf.sprintf "large product %d size" case) !size
      (W.cardinal h)
  done;
  (* Unions that collide: {0}∪{1}, {0,1}∪{1} and {0,1}∪∅ are one world. *)
  let v = B.of_list width in
  let h = check_product "colliding unions" width [ [ v [ 0 ]; v [ 0; 1 ] ]; [ v [ 1 ]; v [] ] ] in
  Alcotest.(check int) "colliding unions: 2 worlds" 2 (W.cardinal h);
  for case = 0 to 9 do
    (* Eight to ten factors over 5 transitions: far more choices than
       the 32 worlds they can union to. *)
    let factors =
      List.init
        (8 + Random.State.int st 3)
        (fun _ ->
          List.init (2 + Random.State.int st 2) (fun _ ->
              v (List.filter (fun _ -> Random.State.bool st) [ 0; 1; 2; 3; 4 ])))
    in
    ignore (check_product (Printf.sprintf "collisions %d" case) width factors)
  done;
  (* An empty factor leaves no choice at all. *)
  let h = check_product "empty factor" width [ [ v [ 0 ]; v [ 1 ] ]; []; [ v [ 2 ] ] ] in
  Alcotest.(check bool) "empty factor: empty product" true (W.is_empty h)

(* Interning invariant: structural equality coincides with physical
   equality. *)
let test_hashcons_identity () =
  let st = Random.State.make [| 0xcafe |] in
  for _ = 1 to 200 do
    let worlds = List.init (Random.State.int st 8) (fun _ -> random_world st) in
    let a = W.of_list worlds in
    let b = List.fold_left (fun acc w -> W.add w acc) W.empty (List.rev worlds) in
    if not (W.equal a b) then Alcotest.fail "of_list/add disagree";
    if W.compare a b <> 0 then Alcotest.fail "equal sets with compare <> 0";
    if W.hash a <> W.hash b then Alcotest.fail "equal sets with distinct hashes"
  done

(* [clear_caches] is the memory-pressure hook: it must reach every
   domain, not only the caller.  Another domain's repeat of an
   operation is a hit before the call and a miss after it, since the
   call drops the one computed table they all read, and both answers
   are the same canonical set. *)
let test_clear_caches_across_domains () =
  let hits = Gpo_obs.Counter.make "worldset.union.cache_hit" in
  let misses = Gpo_obs.Counter.make "worldset.union.cache_miss" in
  let counts () = (Gpo_obs.Counter.value hits, Gpo_obs.Counter.value misses) in
  (* Two-world sets whose union is one memoized step: every world of
     [a] holds transition 5, which comes before all of [b]'s in the
     variable order, so [b] becomes the [lo] side of [a]'s top node and
     nothing below it is computed. *)
  let a = W.of_list [ w [ 0; 5 ]; w [ 1; 5 ] ] in
  let b = W.of_list [ w [ 2 ]; w [ 3 ] ] in
  let phase = Atomic.make 0 in
  let await n = while Atomic.get phase < n do Domain.cpu_relax () done in
  let other =
    Domain.spawn (fun () ->
        let first = W.union a b in
        let c0 = counts () in
        let repeat = W.union a b in
        let c1 = counts () in
        Atomic.set phase 1;
        await 2;
        let again = W.union a b in
        (first, repeat, again, c0, c1, counts ()))
  in
  await 1;
  W.clear_caches ();
  Atomic.set phase 2;
  let first, repeat, again, (h0, m0), (h1, m1), c2 = Domain.join other in
  Alcotest.(check (pair int int)) "repeat before clear_caches hits" (h0 + 1, m0) (h1, m1);
  Alcotest.(check (pair int int)) "repeat after clear_caches misses" (h1, m1 + 1) c2;
  Alcotest.(check bool) "one canonical result" true (first == repeat && repeat == again)

(* The computed table is process-wide: an operation another domain
   repeats is a hit there, and returns the very node computed here. *)
let test_hit_across_domains () =
  let counts () =
    ( Gpo_obs.Counter.value (Gpo_obs.Counter.make "worldset.union.cache_hit"),
      Gpo_obs.Counter.value (Gpo_obs.Counter.make "worldset.union.cache_miss") )
  in
  (* A one-step union, as above. *)
  let a = W.of_list [ w [ 0; 6 ]; w [ 1; 6 ] ] in
  let b = W.of_list [ w [ 2 ]; w [ 3 ] ] in
  let here = W.union a b in
  let there, (h0, m0), c1 =
    Domain.join
      (Domain.spawn (fun () ->
           let c0 = counts () in
           let r = W.union a b in
           (r, c0, counts ())))
  in
  Alcotest.(check (pair int int)) "repeat on another domain hits" (h0 + 1, m0) c1;
  Alcotest.(check bool) "the same canonical result" true (here == there)

(* Domains racing on the shared table, from an empty one, must still
   compute every operation right: each runs the randomized sessions
   (seeds in a rotated order, so they store and probe different slots
   at once) over the operands the single-domain pass built, and every
   result must be the very node that pass computed.  [op_pool] checks
   each step against [Set.Make] as it goes.  Meanwhile this domain keeps
   dropping the table, which must cost the others hits only. *)
let test_ops_concurrent () =
  let seeds = 120 and n_domains = 3 in
  let expected = Array.init seeds (fun seed -> fst (op_pool seed)) in
  W.clear_caches ();
  let finished = Atomic.make 0 in
  let run rot () =
    Fun.protect ~finally:(fun () -> Atomic.incr finished) @@ fun () ->
    for i = 0 to seeds - 1 do
      let seed = (i + (rot * seeds / n_domains)) mod seeds in
      Array.iteri
        (fun j (h, _) ->
          if h != fst expected.(seed).(j) then
            Alcotest.failf "domain %d seed %d step %d: not the single-domain node"
              rot seed j)
        (fst (op_pool seed))
    done
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (run d)) in
  while Atomic.get finished < n_domains do
    W.clear_caches ();
    Unix.sleepf 0.0005
  done;
  List.iter Domain.join domains

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:200 gen f)

let gen_world = QCheck2.Gen.(map (fun xs -> w xs) (list_size (0 -- 4) (0 -- 7)))
let gen_ws = QCheck2.Gen.(map W.of_list (list_size (0 -- 8) gen_world))

let props =
  let open QCheck2.Gen in
  [
    prop "world-set union commutes" (pair gen_ws gen_ws) (fun (a, b) ->
        W.equal (W.union a b) (W.union b a));
    prop "world-set inter associates" (triple gen_ws gen_ws gen_ws) (fun (a, b, c) ->
        W.equal (W.inter a (W.inter b c)) (W.inter (W.inter a b) c));
    prop "filter_member is a filter" (pair (0 -- 7) gen_ws) (fun (t, s) ->
        W.for_all (fun v -> B.mem t v) (W.filter_member t s));
    prop "singleton product is identity" gen_ws (fun a ->
        W.equal (W.product 8 [ a ]) a || W.is_empty a);
  ]

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "algebra" `Quick test_algebra;
    Alcotest.test_case "filter_member" `Quick test_filter_member;
    Alcotest.test_case "product" `Quick test_product;
    Alcotest.test_case "state denotation" `Quick test_state_denotation;
    Alcotest.test_case "state normalizes to r" `Quick test_state_normalizes_to_r;
    Alcotest.test_case "state equality and hash" `Quick test_state_equality_and_hash;
    Alcotest.test_case "randomized op sequences" `Quick test_ops_random;
    Alcotest.test_case "products" `Quick test_products;
    Alcotest.test_case "hash-consing identity" `Quick test_hashcons_identity;
    Alcotest.test_case "memo caches reset across domains" `Quick
      test_clear_caches_across_domains;
    Alcotest.test_case "a result computed on one domain is a hit on another" `Quick
      test_hit_across_domains;
    Alcotest.test_case "concurrent op sequences on shared operands" `Quick
      test_ops_concurrent;
  ]
  @ props
