(* Unit and property tests for the ROBDD package. *)

module D = Bdd_alias


let test_constants () =
  let m = D.manager () in
  Alcotest.(check bool) "zero is zero" true (D.is_zero (D.zero m));
  Alcotest.(check bool) "one is one" true (D.is_one (D.one m));
  Alcotest.(check bool) "not zero = one" true (D.is_one (D.not_ m (D.zero m)))

let test_hash_consing () =
  let m = D.manager () in
  let a = D.and_ m (D.var m 0) (D.var m 1) in
  let b = D.and_ m (D.var m 1) (D.var m 0) in
  Alcotest.(check bool) "structural sharing" true (D.equal a b);
  let c = D.or_ m (D.nvar m 0) (D.nvar m 1) in
  Alcotest.(check bool) "de morgan" true (D.equal (D.not_ m a) c)

let test_eval () =
  let m = D.manager () in
  let f = D.xor_ m (D.var m 0) (D.var m 1) in
  Alcotest.(check bool) "xor tt" false (D.eval f (fun _ -> true));
  Alcotest.(check bool) "xor tf" true (D.eval f (fun v -> v = 0));
  Alcotest.(check bool) "xor ft" true (D.eval f (fun v -> v = 1));
  Alcotest.(check bool) "xor ff" false (D.eval f (fun _ -> false))

let test_exists () =
  let m = D.manager () in
  let f = D.and_ m (D.var m 0) (D.var m 1) in
  Alcotest.(check bool) "exists x0 (x0 ∧ x1) = x1" true
    (D.equal (D.exists m [ 0 ] f) (D.var m 1));
  Alcotest.(check bool) "exists both = 1" true (D.is_one (D.exists m [ 0; 1 ] f));
  let g = D.and_ m (D.var m 0) (D.not_ m (D.var m 0)) in
  Alcotest.(check bool) "exists over 0 = 0" true (D.is_zero (D.exists m [ 0 ] g))

let test_and_exists () =
  let m = D.manager () in
  let f = D.or_ m (D.var m 0) (D.var m 2) in
  let g = D.or_ m (D.not_ m (D.var m 0)) (D.var m 1) in
  Alcotest.(check bool) "fused = unfused" true
    (D.equal (D.and_exists m [ 0 ] f g) (D.exists m [ 0 ] (D.and_ m f g)))

let test_rename () =
  let m = D.manager () in
  let f = D.and_ m (D.var m 1) (D.var m 3) in
  let g = D.rename_monotone m (fun v -> v - 1) f in
  Alcotest.(check bool) "renamed" true (D.equal g (D.and_ m (D.var m 0) (D.var m 2)))

let test_restrict () =
  let m = D.manager () in
  let x0 = D.var m 0 in
  let f = D.or_ m (D.and_ m x0 (D.var m 1)) (D.and_ m (D.not_ m x0) (D.var m 2)) in
  Alcotest.(check bool) "restrict x0=1" true (D.equal (D.restrict m 0 true f) (D.var m 1));
  Alcotest.(check bool) "restrict x0=0" true (D.equal (D.restrict m 0 false f) (D.var m 2))

let test_sat_count () =
  let m = D.manager () in
  let f = D.or_ m (D.var m 0) (D.var m 1) in
  Alcotest.(check (float 1e-9)) "x0 or x1 over 2 vars" 3.0 (D.sat_count m 2 f);
  Alcotest.(check (float 1e-9)) "over 4 vars" 12.0 (D.sat_count m 4 f);
  Alcotest.(check (float 1e-9)) "one" 16.0 (D.sat_count m 4 (D.one m));
  Alcotest.(check (float 1e-9)) "zero" 0.0 (D.sat_count m 4 (D.zero m));
  (* Parity function: exactly half the assignments. *)
  let parity =
    List.fold_left (fun acc v -> D.xor_ m acc (D.var m v)) (D.zero m) [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check (float 1e-9)) "parity over 5" 16.0 (D.sat_count m 5 parity)

let test_any_sat () =
  let m = D.manager () in
  let f = D.and_ m (D.var m 1) (D.nvar m 3) in
  let assignment = D.any_sat f in
  let lookup v = List.assoc_opt v assignment = Some true in
  Alcotest.(check bool) "assignment satisfies" true (D.eval f lookup);
  Alcotest.check_raises "zero has no sat" Not_found (fun () ->
      ignore (D.any_sat (D.zero m)))

let test_size_and_peak () =
  let m = D.manager () in
  let f =
    List.fold_left (fun acc v -> D.and_ m acc (D.var m v)) (D.one m) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "conjunction chain size" 6 (D.size f);
  Alcotest.(check bool) "peak at least live" true (D.peak_nodes m >= D.live_nodes m)

(* ⋀_{i<k} (x_i ↔ x_{k+i}) under the natural order has about 3·2^k
   nodes, so at k = 14 building it misses the computed table more often
   than the table has slots: entries get overwritten, and every result
   must still be the canonical node. *)
let test_table_overflow () =
  let k = 14 in
  let misses = Gpo_obs.Counter.make "bdd.apply.cache_miss" in
  let before = Gpo_obs.Counter.value misses in
  let m = D.manager () in
  let pair i = D.iff m (D.var m i) (D.var m (k + i)) in
  let forward = D.conj m (List.init k pair) in
  let reverse = D.conj m (List.rev (List.init k pair)) in
  Alcotest.(check bool) "forward and reverse builds are one node" true
    (D.equal forward reverse);
  Alcotest.(check (float 0.)) "2^k models over 2k variables"
    (ldexp 1.0 k) (D.sat_count m (2 * k) forward);
  Alcotest.(check bool) "more misses than slots" true
    (Gpo_obs.Counter.value misses - before > 1 lsl 14)

(* Property tests: BDD semantics agrees with direct boolean evaluation
   on random formulas. *)

type formula =
  | Var of int
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Xor of formula * formula

let rec gen_formula depth =
  let open QCheck2.Gen in
  if depth = 0 then map (fun v -> Var v) (0 -- 5)
  else
    frequency
      [
        (1, map (fun v -> Var v) (0 -- 5));
        (2, map (fun f -> Not f) (gen_formula (depth - 1)));
        (2, map2 (fun a b -> And (a, b)) (gen_formula (depth - 1)) (gen_formula (depth - 1)));
        (2, map2 (fun a b -> Or (a, b)) (gen_formula (depth - 1)) (gen_formula (depth - 1)));
        (1, map2 (fun a b -> Xor (a, b)) (gen_formula (depth - 1)) (gen_formula (depth - 1)));
      ]

let rec to_bdd m = function
  | Var v -> D.var m v
  | Not f -> D.not_ m (to_bdd m f)
  | And (a, b) -> D.and_ m (to_bdd m a) (to_bdd m b)
  | Or (a, b) -> D.or_ m (to_bdd m a) (to_bdd m b)
  | Xor (a, b) -> D.xor_ m (to_bdd m a) (to_bdd m b)

let rec eval_formula env = function
  | Var v -> env v
  | Not f -> not (eval_formula env f)
  | And (a, b) -> eval_formula env a && eval_formula env b
  | Or (a, b) -> eval_formula env a || eval_formula env b
  | Xor (a, b) -> eval_formula env a <> eval_formula env b

let all_envs n =
  List.init (1 lsl n) (fun bits -> fun v -> bits land (1 lsl v) <> 0)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:200 gen f)

let props =
  [
    prop "bdd agrees with boolean semantics" (gen_formula 4) (fun f ->
        let m = D.manager () in
        let bdd = to_bdd m f in
        List.for_all (fun env -> D.eval bdd env = eval_formula env f) (all_envs 6));
    prop "sat_count agrees with enumeration" (gen_formula 4) (fun f ->
        let m = D.manager () in
        let bdd = to_bdd m f in
        let expected =
          List.length (List.filter (fun env -> eval_formula env f) (all_envs 6))
        in
        D.sat_count m 6 bdd = float_of_int expected);
    prop "double negation" (gen_formula 4) (fun f ->
        let m = D.manager () in
        let bdd = to_bdd m f in
        D.equal bdd (D.not_ m (D.not_ m bdd)));
    prop "exists = or of restricts" (gen_formula 4) (fun f ->
        let m = D.manager () in
        let bdd = to_bdd m f in
        D.equal (D.exists m [ 2 ] bdd)
          (D.or_ m (D.restrict m 2 true bdd) (D.restrict m 2 false bdd)));
  ]

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "exists" `Quick test_exists;
    Alcotest.test_case "and_exists" `Quick test_and_exists;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "restrict" `Quick test_restrict;
    Alcotest.test_case "sat_count" `Quick test_sat_count;
    Alcotest.test_case "any_sat" `Quick test_any_sat;
    Alcotest.test_case "size and peak" `Quick test_size_and_peak;
    Alcotest.test_case "canonical when the table overflows" `Quick test_table_overflow;
  ]
  @ props
