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

let check ?reduction ~label net (states, edges, d) =
  let r = E.analyse ?reduction net in
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

let stepwise =
  [
    (Models.Figures.fig2 4, 5, 4, "a4e437ae1418f88420df2a5cf459c15d");
    (Models.Nsdp.make 3, 11, 11, "0b94f4e017eaf1029b53ffcade9cdfbd");
    (Models.Rw.make 4, 2, 2, "c3c153ba3b6ec8809e06702c571c3cf3");
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

let check_all ?reduction rows =
  List.iter
    (fun (net, states, edges, d) ->
      check ?reduction ~label:net.Petri.Net.name net (states, edges, d))
    rows

let test_zoo () = check_all zoo
let test_stepwise () = check_all ~reduction:E.Stepwise stepwise

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

let suite =
  [
    Alcotest.test_case "results on the zoo" `Quick test_zoo;
    Alcotest.test_case "results, stepwise" `Quick test_stepwise;
    Alcotest.test_case "results on random nets" `Slow test_random;
    Alcotest.test_case "zoo with node ids past 2^31" `Quick test_large_node_ids;
  ]
