(* Unit and property tests for Petri.Bitset. *)

module B = Petri.Bitset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_empty_full () =
  let e = B.empty 67 in
  let f = B.full 67 in
  check "empty is empty" true (B.is_empty e);
  check "full is not empty" false (B.is_empty f);
  check_int "empty cardinal" 0 (B.cardinal e);
  check_int "full cardinal" 67 (B.cardinal f);
  check "full has 0" true (B.mem 0 f);
  check "full has 66" true (B.mem 66 f);
  check "empty lacks 66" false (B.mem 66 e);
  check_int "width 0 works" 0 (B.cardinal (B.empty 0))

let test_add_remove () =
  let s = B.of_list 100 [ 3; 64; 99 ] in
  check_int "cardinal" 3 (B.cardinal s);
  check "mem 64" true (B.mem 64 s);
  check "not mem 65" false (B.mem 65 s);
  let s' = B.remove 64 s in
  check "removed" false (B.mem 64 s');
  check "others kept" true (B.mem 3 s' && B.mem 99 s');
  check "add idempotent (physical)" true (B.add 3 s == s);
  check "remove missing idempotent" true (B.remove 50 s == s);
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset.add: element 100 outside [0,100)") (fun () ->
      ignore (B.add 100 s))

let test_set_algebra () =
  let a = B.of_list 70 [ 1; 2; 3; 65 ] in
  let b = B.of_list 70 [ 3; 4; 65; 69 ] in
  check "union" true (B.equal (B.union a b) (B.of_list 70 [ 1; 2; 3; 4; 65; 69 ]));
  check "inter" true (B.equal (B.inter a b) (B.of_list 70 [ 3; 65 ]));
  check "diff" true (B.equal (B.diff a b) (B.of_list 70 [ 1; 2 ]));
  check "subset of union" true (B.subset a (B.union a b));
  check "not subset" false (B.subset a b);
  check "intersects" true (B.intersects a b);
  check "disjoint after diff" true (B.disjoint (B.diff a b) b)

let test_iteration_order () =
  let s = B.of_list 130 [ 129; 0; 63; 64; 65 ] in
  Alcotest.(check (list int)) "elements sorted" [ 0; 63; 64; 65; 129 ] (B.elements s);
  check_int "fold counts" 5 (B.fold (fun _ acc -> acc + 1) s 0);
  check_int "choose is min" 0 (B.choose s);
  check "for_all" true (B.for_all (fun i -> i < 130) s);
  check "exists" true (B.exists (fun i -> i = 64) s);
  check "exists false" false (B.exists (fun i -> i = 1) s)

let test_choose_empty () =
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (B.choose (B.empty 10)))

let test_hash_compare () =
  let a = B.of_list 70 [ 1; 69 ] in
  let b = B.of_list 70 [ 1; 69 ] in
  let c = B.of_list 70 [ 1; 68 ] in
  check "equal" true (B.equal a b);
  check_int "compare equal" 0 (B.compare a b);
  check "hash equal" true (B.hash a = B.hash b);
  check "not equal" false (B.equal a c);
  check "compare total" true (B.compare a c * B.compare c a < 0);
  check "widths differ" false (B.equal (B.empty 3) (B.empty 4))

let test_to_string () =
  let s = B.of_list 10 [ 1; 3 ] in
  Alcotest.(check string) "default names" "{1, 3}" (B.to_string s);
  Alcotest.(check string)
    "custom names" "{b, d}"
    (B.to_string ~name:(fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) s)

(* Property tests *)

let gen_set width =
  QCheck2.Gen.(
    map (fun xs -> B.of_list width xs) (list_size (0 -- 20) (0 -- (width - 1))))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen f)

let width = 67

let props =
  let open QCheck2.Gen in
  [
    prop "union commutative" (pair (gen_set width) (gen_set width)) (fun (a, b) ->
        B.equal (B.union a b) (B.union b a));
    prop "inter distributes over union"
      (triple (gen_set width) (gen_set width) (gen_set width))
      (fun (a, b, c) ->
        B.equal (B.inter a (B.union b c)) (B.union (B.inter a b) (B.inter a c)));
    prop "diff then union restores superset" (pair (gen_set width) (gen_set width))
      (fun (a, b) -> B.equal (B.union (B.diff a b) (B.inter a b)) a);
    prop "cardinal inclusion-exclusion" (pair (gen_set width) (gen_set width))
      (fun (a, b) ->
        B.cardinal (B.union a b) + B.cardinal (B.inter a b)
        = B.cardinal a + B.cardinal b);
    prop "subset iff diff empty" (pair (gen_set width) (gen_set width)) (fun (a, b) ->
        B.subset a b = B.is_empty (B.diff a b));
    prop "elements round-trip" (gen_set width) (fun a ->
        B.equal a (B.of_list width (B.elements a)));
    prop "hash respects equal" (gen_set width) (fun a ->
        B.hash a = B.hash (B.of_list width (B.elements a)));
    prop "compare antisymmetric" (pair (gen_set width) (gen_set width)) (fun (a, b) ->
        let c = B.compare a b and c' = B.compare b a in
        (c = 0 && c' = 0 && B.equal a b) || c * c' < 0);
  ]

let suite =
  [
    Alcotest.test_case "empty and full" `Quick test_empty_full;
    Alcotest.test_case "add and remove" `Quick test_add_remove;
    Alcotest.test_case "set algebra" `Quick test_set_algebra;
    Alcotest.test_case "iteration order" `Quick test_iteration_order;
    Alcotest.test_case "choose on empty" `Quick test_choose_empty;
    Alcotest.test_case "hash and compare" `Quick test_hash_compare;
    Alcotest.test_case "to_string" `Quick test_to_string;
  ]
  @ props
