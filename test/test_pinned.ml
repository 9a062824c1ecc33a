(* GPO results pinned at the commit where the explorer last ran over
   two world-set representations (hash-consed tries and a balanced tree
   of bit sets) and both agreed bit for bit.  Each row pins a net's
   state and edge counts plus a digest of its run roots, deadlock
   witness markings and stop reason; a change to the world-set
   internals must reproduce them exactly. *)

module B = Petri.Bitset
module E = Gpn.Explorer

let digest (r : E.result) =
  let marking m = String.concat "," (List.map string_of_int (B.elements m)) in
  let roots = List.map (fun (run : E.run) -> marking run.E.root) r.E.runs in
  let witnesses =
    List.map
      (fun (w : E.witness) -> String.concat "/" (List.map marking w.E.markings))
      r.E.deadlocks
  in
  String.concat "|"
    [ String.concat ";" roots; String.concat ";" witnesses; Guard.describe_stop r.E.stop ]
  |> Digest.string |> Digest.to_hex

let check ~label net (states, edges, d) =
  let r = E.analyse net in
  Alcotest.(check (triple int int string))
    (label ^ ": states, edges, digest") (states, edges, d)
    (r.E.states, r.E.edges, digest r)

let zoo =
  [
    (Models.Figures.fig1, 2, 1, "608b855cdc93fcfebcd0e0ed558a6065");
    (Models.Figures.fig2 4, 2, 1, "a4e437ae1418f88420df2a5cf459c15d");
    (Models.Figures.fig2 8, 2, 1, "e0906aec474cf165ecc83a53d174c1ab");
    (Models.Nsdp.make 2, 9, 9, "b72dd0b58f0a8237695011478dbc0fcb");
    (Models.Nsdp.make 4, 9, 9, "9432ba3c40d957112fcc478bbe850762");
    (Models.Nsdp.make 6, 9, 9, "753252034d5b27b60bc92d02ca1162bb");
    (Models.Asat.make 2, 10, 10, "c0e7b795b8ea931b291b41ed3cbe3d1d");
    (Models.Asat.make 4, 14, 14, "13eed6675d7f6990f88326d1f8fb3a52");
    (Models.Over.make 2, 12, 12, "f5096b63079aa5597a8cdaa793764a5e");
    (Models.Over.make 4, 59, 59, "fdd10e2c366067b4d5417d12f72eeb4c");
    (Models.Rw.make 3, 2, 2, "cc2d89401897f01589ff00732e80b8e9");
    (Models.Rw.make 6, 2, 2, "3d2b11d60e938f9894c0a78d40d96fe5");
    (Models.Scheduler.make 3, 4, 4, "677fc410b4065c5e3783b6c9662be508");
  ]

(* Indexed by [Models.Random_net.generate] seed. *)
let random =
  [|
    (9, 8, "47697fa347e0434484e1b1f376cde506");
    (4, 3, "38623b573734a5cf2728406394343aa7");
    (5, 5, "7cd400f0005daebe99528066cd7530e9");
    (2, 1, "cd3923735cb65a220194fa735403b7fd");
    (4, 3, "bea2b4e148faf9ecc694c2c39b5c852a");
    (10, 10, "dd153a562568365bc525e92b5352c249");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (7, 7, "d2b44566bcf126334d06c69a1e8e3c80");
    (5, 4, "860ef7476c33bcd019d34cd3dc62b44a");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (5, 4, "2f75acff50c582de3728df0cd68b8397");
    (5, 4, "f8a2d84d581e9be97111c778a11a2567");
    (3, 3, "636c77a10fe66b72f60bde5b4e801e65");
    (3, 3, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 1, "96a7834b8e7ff3759c00b9699ef873e8");
    (2, 1, "2f75acff50c582de3728df0cd68b8397");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (18, 17, "cd1e9809f2a4372667e7fb097b06a7c6");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (5, 5, "e01c3c2fb2b2b98c23de00f59417709e");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (3, 2, "ec0b9f5192f4d72830674bf0a69d689f");
    (7, 5, "485fd5b663fd0b59d657b030bbf63239");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (6, 4, "d5e1f91e3156034d65f5a83a635a4a81");
    (4, 4, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 1, "2596406bd1c956b3c6f209e3662b9f90");
    (14, 10, "7c290f728b0d369ba6f2f7c6558ad3d1");
    (2, 1, "96a7834b8e7ff3759c00b9699ef873e8");
    (4, 4, "b04e95756e41aed3163e31291d9bfc56");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (4, 3, "050d37c14319802287a9cdc08c295d3a");
    (12, 11, "7cd400f0005daebe99528066cd7530e9");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 1, "00e216cba2a0caa1650ece7905a15cbc");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (3, 2, "22641950ef0e005c348e0ff9a07e87d2");
    (12, 11, "8140b350dfe3a1274e4900f08a44389d");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (10, 10, "ede62ccfd4073b85cb20938d83d05fa6");
    (7, 6, "58bc078a82f6f83c2e0858233f77036c");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (4, 4, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (4, 4, "4ef8dc58ad4ceab997b957b483453a45");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (3, 2, "2579381ee9a5d3f0bb5a57f10cc54412");
    (30, 24, "4da53f85dad58cc1099802be06ab94d9");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (5, 5, "d2ec1d20c372679d2ea3ef067ae6372b");
    (22, 22, "c7b11f850dea852c620d28f23cfbad00");
    (14, 10, "d5e0fb4152a1658e707f010fae8070ac");
    (2, 1, "ec0b9f5192f4d72830674bf0a69d689f");
    (3, 2, "d1d8847242d45db88c1b1d7faa417639");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (3, 2, "59681bc85358818b61facc73ab27c9ca");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 1, "422a39e535266519fabcdffdc962d0d7");
    (5, 4, "1c8b43fe3e16a6a8f4b249e2413bb42f");
    (23, 22, "ffe5a5e8ad6cc47fc261b7c74b0005f8");
    (10, 8, "cabc5452d8da1e1bef346d46c9f58430");
    (2, 1, "96a7834b8e7ff3759c00b9699ef873e8");
    (6, 5, "a95cb721975c88423dcb89852ccfb584");
    (3, 2, "d280758ff168a1a5d5740381bccae8a8");
    (5, 5, "01a4e4d6c8867de634df9c1befb9382f");
    (2, 1, "825a6c2ffe0cd31fc2636f10fecc3930");
    (6, 4, "2cc52b61f91afeefaee6844344bca337");
    (4, 4, "636c77a10fe66b72f60bde5b4e801e65");
    (11, 10, "8aecb979d9f9e19468c0c7af084cd149");
    (3, 2, "2f75acff50c582de3728df0cd68b8397");
    (16, 16, "b0cb743c93f2d57451d897f08f6a1546");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (4, 4, "d9159ade3f129cb4a55d23cf91a236a7");
    (2, 1, "96a7834b8e7ff3759c00b9699ef873e8");
    (3, 3, "2579381ee9a5d3f0bb5a57f10cc54412");
    (6, 6, "0452656aadd89016dda6599bd5d2fd9c");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (2, 1, "96a7834b8e7ff3759c00b9699ef873e8");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (4, 3, "790ea80220b35f1f2019be1915a11e28");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 1, "cd3923735cb65a220194fa735403b7fd");
    (2, 1, "ec0b9f5192f4d72830674bf0a69d689f");
    (8, 8, "5101e93bad669595c31eb6bb5961c42a");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (3, 2, "22641950ef0e005c348e0ff9a07e87d2");
    (2, 1, "2579381ee9a5d3f0bb5a57f10cc54412");
    (12, 11, "41b3b22820afdf875359a5b8a487af27");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (5, 5, "f8770d6eee477ab8f67a09e1be6114b8");
    (7, 7, "6adf62175da2a0749de4fe72d69bcf4b");
    (3, 2, "329f4b0256b4e9472e685f48c885cf73");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (4, 4, "636c77a10fe66b72f60bde5b4e801e65");
    (4, 4, "636c77a10fe66b72f60bde5b4e801e65");
    (3, 2, "b2d97c5437ef2fb892461b107bc5f479");
    (3, 3, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (3, 3, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 2, "636c77a10fe66b72f60bde5b4e801e65");
    (5, 5, "636c77a10fe66b72f60bde5b4e801e65");
    (8, 8, "20ba65309409ec778b86532a123db490");
    (3, 3, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 1, "22c9a270111a8d31ea68495f84280911");
    (5, 4, "40a98485f1b1943c3f4b21d5e77a2b88");
    (3, 3, "636c77a10fe66b72f60bde5b4e801e65");
    (5, 5, "1243e2ae3664ab2195f049059a541e83");
    (11, 10, "d542ab71f6c3a21f87da096cea4c6cf0");
    (8, 6, "35f49a9b822464832850f5fbd904f5c1");
    (5, 5, "d34f1766556330e76c1e801bb5ae62cb");
    (5, 5, "636c77a10fe66b72f60bde5b4e801e65");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (4, 4, "636c77a10fe66b72f60bde5b4e801e65");
    (4, 4, "636c77a10fe66b72f60bde5b4e801e65");
    (2, 1, "e9d755df3f8dbc27e23b99c0bea30595");
    (3, 2, "18e086e456180973eef8d0a7c81bad31");
    (1, 1, "636c77a10fe66b72f60bde5b4e801e65");
    (8, 8, "755d24bcd83cd6bbda3d63461011582a");
    (2, 1, "badbdf96e249c4b3e9e85ceb48ea7960");
    (4, 4, "b72549285be2a2a1ee86ffb2a0c53669");
    (3, 3, "4ef8dc58ad4ceab997b957b483453a45");
    (15, 13, "cfc26b44bf6e67aca87d73da6959e52d");
    (2, 1, "f67677093624e5739f21942abcdd8214");
    (3, 3, "abe6b97f2d58a0998d80ec12235730e1");
    (4, 4, "1e8d7ab21022e65d812eaaf12885ab9e");
    (1, 0, "71d8366e66d93175ef122c1e0fab3223");
    (2, 2, "c6093d0f87dec57f53a8008b8c5f23a2");
    (3, 3, "636c77a10fe66b72f60bde5b4e801e65");
    (4, 4, "46b8641ec5255a0958cddd81fdecd9d8");
    (14, 13, "6eb1d3d7a3afffdc80e8325a73f0c5d0");
    (3, 2, "cd3923735cb65a220194fa735403b7fd");
    (6, 5, "1a4ffb24880965697c6d23a6e046eb06");
    (8, 6, "bb91ad12240588ac9f7189cb704c156f");
  |]

let check_all rows =
  List.iter
    (fun (net, states, edges, d) ->
      check ~label:net.Petri.Net.name net (states, edges, d))
    rows

let test_zoo () = check_all zoo

let test_random () =
  Array.iteri
    (fun seed pinned ->
      check ~label:(Printf.sprintf "random seed %d" seed)
        (Models.Random_net.generate seed) pinned)
    random

(* Memo keys must stay injective once node ids pass 2^31, which a
   long-lived [julie serve] reaches after a few thousand cold questions.
   Raising the id counter is process-wide and one-way, so every test
   that runs after this one does so with large ids too. *)
let test_large_node_ids () =
  Gpn.World_set.advance_node_ids (1 lsl 31);
  let r = E.analyse (Models.Figures.fig2 4) in
  Alcotest.(check int) "fig2-4 states" 2 r.E.states;
  check_all zoo

(* The class descent compares trie nodes physically and keys nothing on
   node ids: it must still equal per-world grouping once ids pass
   2^31. *)
let test_large_node_ids_classes () =
  Gpn.World_set.advance_node_ids (1 lsl 31);
  List.iter Test_scan.check_classes Test_scan.zoo

(* Restart provenance, pinned at the commit before the deviation scan
   went from one world at a time to one denotation class at a time.
   The digests above cover run roots and witness markings but not which
   world, state and transition a restart is attributed to.  These rows
   pin, per net, the [gpo.deviations_scheduled] count (in (world,
   transition) pairs) and a digest of every run's root trace and every
   witness's deadlock trace.  Same nets and order as [zoo] and
   [random]. *)
let trace_digest (r : E.result) =
  let trace ts = String.concat "," (List.map string_of_int ts) in
  String.concat "|"
    [
      String.concat ";"
        (List.map (fun run -> trace (E.root_trace r.E.ctx run)) r.E.runs);
      String.concat ";"
        (List.map (fun w -> trace (E.deadlock_trace r w)) r.E.deadlocks);
    ]
  |> Digest.string |> Digest.to_hex

let c_deviations = Gpo_obs.Counter.make "gpo.deviations_scheduled"

let check_provenance ~label net pinned =
  let before = Gpo_obs.Counter.value c_deviations in
  let r = E.analyse net in
  Alcotest.(check (pair int string))
    (label ^ ": deviations scheduled, trace digest")
    pinned
    (Gpo_obs.Counter.value c_deviations - before, trace_digest r)

let zoo_provenance =
  [
    (0, "b2662ef75a09b5d3b842c374f3739a48");  (* fig1 *)
    (0, "5eca99f1935e4eb10bfbf06b1621503f");  (* fig2-4 *)
    (0, "bc64d5347bba353237d3b92cef0c34b1");  (* fig2-8 *)
    (0, "819ce0c1d15d5575c05ea57b97087475");  (* nsdp-2 *)
    (0, "6a52ce7e779b680e922c1f6aa80b49e6");  (* nsdp-4 *)
    (0, "a57bdf44f6bd3fb8b2354791f2ad2508");  (* nsdp-6 *)
    (0, "b99834bc19bbad24580b3adfa04fb947");  (* asat-2 *)
    (0, "b99834bc19bbad24580b3adfa04fb947");  (* asat-4 *)
    (24, "a0a78a65f18921520c1f62e1b2dbbd20");  (* over-2 *)
    (6231, "972e8b4c8c668703ccb4c5f164690415");  (* over-4 *)
    (2, "b99834bc19bbad24580b3adfa04fb947");  (* rw-3 *)
    (5, "b99834bc19bbad24580b3adfa04fb947");  (* rw-6 *)
    (0, "b99834bc19bbad24580b3adfa04fb947");  (* scheduler-3 *)
  ]

(* Indexed by [Models.Random_net.generate] seed. *)
let random_provenance =
  [|
    (6, "b80854471a84a30275fe8e8747230e98");
    (12, "fce7d0a2d9e8124af9c4cd9bb707fa91");
    (0, "2988401715df713889e71a41c6a75fc8");
    (0, "ef7323af4582f50d5e939a198222d68c");
    (9, "0ca1a4934fb1e9651cd6f11211c48146");
    (13, "76d3325f392be893732f179c3ce0399d");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (1, "2df51923aa3c71d9072e9444eb98a1f0");
    (0, "ab91f32b5fc5797040a96dbcec113a58");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "752a11ff2b25e5f92b75102868613d4e");
    (0, "ea54d3da746920f995be3f8be217f3a2");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "cc15d45cc04e2f8b7e1a5125a0b8707f");
    (0, "080c048e73e622139e71cd7f59e971ad");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (11, "bc21d38811f8faf7668302d7a859c729");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (4, "b7d3d8d75586589a3144305360a3151c");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "56dd1218b190acf204f6dbc458356dab");
    (1, "a84c50e9e620f946c27782dadf35db4c");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (24, "a58e3308b7857a1873129f3ec5764829");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "c350060328adaf73737114c9c9faea08");
    (12, "4cd2c96c50124b51e3a34b1b2592b58e");
    (0, "fba6207af0b750b7a508bf13543d2140");
    (6, "6f7071737cea29f69f3c3ad7bac559d3");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "4f0f5412d591048390cfeccdbe1331eb");
    (0, "2d43b3eb3a801422b8dd47c7373769ab");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (12, "3e2643211eb9dd6b582ec37d30c3d8b8");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "56dd1218b190acf204f6dbc458356dab");
    (20, "31442cdff365c8d227540f27d22e9f1a");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (15, "87ff782248eaca6af73ff50357ce2438");
    (4, "8231b757d8c5391350e82da724ee5718");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (2, "a245428d1c19a05ccc7a6d295e6024d3");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "fba6207af0b750b7a508bf13543d2140");
    (76, "8a5d2f07cbbac8cabaa78b931cf15085");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (3, "fd95368c1dc7dfdabfc15cffb82b4ac6");
    (39, "acbc045864cb139ac7a526b3edc4efa4");
    (12, "9ba5aec01b43661c891b85c2729a4f47");
    (0, "a27ca1f4662ab7dcb9d265875e6269d0");
    (2, "963d26c2c4435a49bf9440a0add6f3d1");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (4, "b99834bc19bbad24580b3adfa04fb947");
    (6, "b99834bc19bbad24580b3adfa04fb947");
    (0, "a4a21c586fd13563d8db2992afa1c6b0");
    (4, "b99834bc19bbad24580b3adfa04fb947");
    (0, "ae12506fdd46702c4faf70b4cb6a2f57");
    (3, "ff6a718402d236254f0a55fedb566cae");
    (26, "8d1a7297db5cf94b40834ced731b43fc");
    (2, "3b3410d1cfe4964df30f4357bae89c89");
    (0, "a27ca1f4662ab7dcb9d265875e6269d0");
    (0, "83b40bf17d65137b02bd33fec6fc027a");
    (0, "fa4fecc717aab9e27177b921e58ba6a8");
    (20, "8aa803920886eb11e3962b2b0bb003f0");
    (0, "ef7323af4582f50d5e939a198222d68c");
    (2, "6ef8fde1840c0c9dcd3ad49fe9fa8354");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (34, "fa21aba59c886c9d9b71b63b7db8f0e3");
    (0, "f12fc3241bd4de276c104bf998831cdf");
    (1, "632865bef5132b739b09731ab44ff708");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (2, "3d318ffae44284a4040cf80cfac9cdb5");
    (0, "cc15d45cc04e2f8b7e1a5125a0b8707f");
    (0, "fba6207af0b750b7a508bf13543d2140");
    (30, "8702350616e6ae543c00b33d2e7ed63f");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "cc15d45cc04e2f8b7e1a5125a0b8707f");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (6, "851018a87579a14abab9b53065779b9c");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "2d610b63fadad061fc20fbdc8ae30075");
    (0, "2d610b63fadad061fc20fbdc8ae30075");
    (22, "3e4a3c221c02538134d364c29792995c");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "ee4c4271542b5453f5069870afc75aa6");
    (0, "2d610b63fadad061fc20fbdc8ae30075");
    (10, "26713a0e70859b0b24c9a61ff70e64cd");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (4, "174972d73800dd5b9eb67572343f1557");
    (3, "715f85d88b671d0385dfec0749164c44");
    (3, "532b22bb850a3e845f45330a756450a6");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "498cbec69e87755b0c4ee79e3e9ae7b5");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (26, "fc0a472c73fc2c84f22211a5dbee6573");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "3eca6fcded4d4cb36a0dc9caa13ba34b");
    (12, "1feec3bbbaf632b87c441a81697b8b21");
    (1, "b99834bc19bbad24580b3adfa04fb947");
    (2, "101ae15b8ed3ec2ca0233324fcb3dcd5");
    (21, "4eafad287e803f4cfb1fbbe81d3ff6cd");
    (10, "9bfff6dbcfcf381c5c04e49740841df4");
    (8, "6b72854b3c95fdbf9f3cfb99a6b8921a");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (6, "41a787e6c5c2351c6c8dc16e7d8d8fb7");
    (0, "0141f051ecf8917778241fd70f2220f2");
    (5, "b99834bc19bbad24580b3adfa04fb947");
    (27, "e06e7093f95aaa240443a4854b3d7732");
    (2, "e2ba2162af2b5a67265204415a051041");
    (12, "47b0ef51672063b05b355aa5dbd9cf22");
    (8, "3d318ffae44284a4040cf80cfac9cdb5");
    (8, "74e6deec4a7a718ac1a45b0114e353e4");
    (0, "7a7014fd5a83055c787e7331b26da411");
    (2, "f70b713327c179b68c1d1ec488719246");
    (2, "5fb7d5f9f1dffd1c5dd14a1dee9d0379");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (2, "f17ca3413adbb5bd20ca37b4b298b625");
    (0, "b99834bc19bbad24580b3adfa04fb947");
    (2, "6830b6995db3f6bf2d4b472f909197f0");
    (16, "e7c1df48a7e5e42bcd7082b1e6808c76");
    (0, "d313d0c9cdcb79cfd103b5efbd9e2734");
    (8, "fe48aa55dac8ae9c2dbf880cdebd1ad6");
    (8, "464b1ea66d64ea2cfd8fb5bd14b85ddc");
  |]

let test_zoo_provenance () =
  List.iter2
    (fun (net, _, _, _) pinned ->
      check_provenance ~label:net.Petri.Net.name net pinned)
    zoo zoo_provenance

let test_random_provenance () =
  Array.iteri
    (fun seed pinned ->
      check_provenance ~label:(Printf.sprintf "random seed %d" seed)
        (Models.Random_net.generate seed) pinned)
    random_provenance

(* The other engines and the structural reduction, pinned at the
   commit before their ablation-only configurations were deleted: per
   conformance zoo net and its monitored variant (the net a cover
   question's reduction runs on), the spin+po state count, the smv peak
   live BDD nodes and a digest of [Reduce.run]'s output. *)
let reduce_digest (r : Reduce.t) =
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let applied =
    List.map
      (fun (rule, n) -> Printf.sprintf "%s=%d" (Reduce.rule_name rule) n)
      r.Reduce.applied
  in
  String.concat "|"
    [
      Petri.Net.digest r.Reduce.net;
      string_of_int r.Reduce.rounds;
      String.concat ";" applied;
      String.concat ";" (Array.to_list (Array.map ints r.Reduce.expansions));
    ]
  |> Digest.string |> Digest.to_hex

let engines =
  [
    ("fig1", 4, 298, "8f6c0bc49b7ecde9b381aa122496c632");
    ("fig2-4", 31, 1741, "bee16b0b70d7755c8ed49e692ce54411");
    ("fig2-6", 127, 5296, "da421e951a4a4ef9946521dcafa73385");
    ("fig3", 4, 244, "c78de2096fca35a80d3b04978bec53ba");
    ("fig5", 2, 108, "1f19c36cab6d88b43c4d221146777e8f");
    ("fig7", 5, 250, "278bfbfbb4ca66acb38ee983ba43a7d4");
    ("nsdp-2", 13, 2114, "6d332152cfa065227f3ac7891c260171");
    ("nsdp-4", 57, 23568, "bb5039f6b501b233d2b23ae449ad8c82");
    ("asat-2", 16, 7938, "e4382949c20b7c192eddb474fcb1d500");
    ("over-2", 8, 1311, "044ff286e74da2e89f27b65b7e127814");
    ("over-3", 13, 6279, "24ece8047abf0b8e21dac0ea07391e76");
    ("over-4", 18, 21083, "b689dc5b185f3f0c5dd6047e3f5197e2");
    ("rw-3", 7, 2122, "b9e24fc69214e79102fe0c5405f37556");
    ("rw-6", 13, 17776, "49acbb5765298845a2d24d2c8ff21c82");
    ("scheduler-2", 6, 331, "b2dab05f6dad9590b720249f5c932b7a");
    ("scheduler-3", 10, 1118, "c8ab33d96f0053fc6a4703ed34cf245d");
    ("fig1-monitored", 12, 558, "f12c752c91603d37cee358efc000c8e5");
    ("fig2-4-monitored", 108, 2367, "4c37cd724a12b051f22e0d2b0f1cf688");
    ("fig2-6-monitored", 972, 6571, "350b3a2e6e0ec9e81df2a8965c69d28c");
    ("fig3-monitored", 5, 422, "bb0c3bf20763d5acce19ba91ee887b38");
    ("fig5-monitored", 3, 249, "d6a9f15b08311a8bf77897eddb36ec4a");
    ("fig7-monitored", 6, 420, "db98a0f524450e8d58b6b1cd93b482f3");
    ("nsdp-2-monitored", 25, 2796, "2b84fa707f13d7ddea450577c0f4a095");
    ("nsdp-4-monitored", 490, 28896, "e695dd0c6dab260302501ed2e333f97b");
    ("asat-2-monitored", 49, 10069, "8e098f2a8c89602d9898d151d9b50840");
    ("over-2-monitored", 24, 1969, "ff9286ac0118de5f505400c57676ba77");
    ("over-3-monitored", 120, 8400, "3dc33b464d12a0923dc232f9290828fa");
    ("over-4-monitored", 672, 26846, "42e0580e2268b7b296f697ea974265b7");
    ("rw-3-monitored", 15, 2931, "c058cd856f6b73715bb17fc3b8f4870e");
    ("rw-6-monitored", 102, 22039, "4d12ab8370604ea5e36934ec32c4d295");
    ("scheduler-2-monitored", 10, 567, "3ce281c2604661db7e7400bd0dd2dbb3");
    ("scheduler-3-monitored", 28, 1638, "7ab9a433be8569a501a8291a4434f0d7");
  ]

let test_engines () =
  let nets =
    List.map (fun (net : Petri.Net.t) -> (net.name, net)) Test_conformance.zoo
    @ List.filter_map
        (fun (net : Petri.Net.t) ->
          Option.map
            (fun m -> (net.name ^ "-monitored", m))
            (Test_conformance.monitored net))
        Test_conformance.zoo
  in
  Alcotest.(check (list string))
    "pinned nets" (List.map (fun (l, _, _, _) -> l) engines) (List.map fst nets);
  List.iter2
    (fun (label, net) (_, po_states, smv_peak, reduced) ->
      let po = Petri.Stubborn.explore net in
      let smv = Bddkit.Symbolic.analyse net in
      Alcotest.(check (triple int int string))
        (label ^ ": spin+po states, smv peak nodes, reduction digest")
        (po_states, smv_peak, reduced)
        ( po.Petri.Reachability.states,
          smv.Bddkit.Symbolic.peak_live_nodes,
          reduce_digest (Reduce.run net) ))
    nets engines

let suite =
  [
    Alcotest.test_case "results on the zoo" `Quick test_zoo;
    Alcotest.test_case "other engines and reduction on the zoo" `Quick
      test_engines;
    Alcotest.test_case "results on random nets" `Slow test_random;
    Alcotest.test_case "restart provenance on the zoo" `Quick test_zoo_provenance;
    Alcotest.test_case "restart provenance on random nets" `Slow
      test_random_provenance;
    Alcotest.test_case "zoo with node ids past 2^31" `Quick test_large_node_ids;
    Alcotest.test_case "classes with node ids past 2^31" `Quick
      test_large_node_ids_classes;
  ]
