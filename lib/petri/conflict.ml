type t = {
  net : Net.t;
  conflicting : Bitset.t array;  (* per transition: transitions sharing an input place *)
  cluster_of : int array;  (* transition -> cluster index *)
  clusters : Bitset.t array;
  conflict_places : Bitset.t;
}

let net c = c.net

let analyse (net : Net.t) =
  let n = net.n_transitions in
  let conflicting = Array.make n (Bitset.empty n) in
  for t = 0 to n - 1 do
    let acc = ref (if Bitset.is_empty net.pre.(t) then Bitset.empty n else Bitset.singleton n t) in
    Array.iter
      (fun p -> Array.iter (fun u -> acc := Bitset.add u !acc) net.consumers.(p))
      net.pre_list.(t);
    conflicting.(t) <- !acc
  done;
  (* Connected components of the conflict relation, by DFS. *)
  let cluster_of = Array.make n (-1) in
  let clusters = ref [] in
  let n_clusters = ref 0 in
  for t = 0 to n - 1 do
    if cluster_of.(t) < 0 then begin
      let id = !n_clusters in
      incr n_clusters;
      let members = ref (Bitset.empty n) in
      let rec visit u =
        if cluster_of.(u) < 0 then begin
          cluster_of.(u) <- id;
          members := Bitset.add u !members;
          Bitset.iter visit conflicting.(u)
        end
      in
      visit t;
      clusters := !members :: !clusters
    end
  done;
  let conflict_places =
    let acc = ref (Bitset.empty net.n_places) in
    for p = 0 to net.n_places - 1 do
      if Array.length net.consumers.(p) >= 2 then acc := Bitset.add p !acc
    done;
    !acc
  in
  {
    net;
    conflicting;
    cluster_of;
    clusters = Array.of_list (List.rev !clusters);
    conflict_places;
  }

let in_conflict c t u = Bitset.mem u c.conflicting.(t)
let conflicting c t = c.conflicting.(t)
let cluster_of c t = c.cluster_of.(t)
let clusters c = c.clusters
let cluster_members c i = c.clusters.(i)
let is_choice_transition c t = Bitset.cardinal c.clusters.(c.cluster_of.(t)) >= 2
let conflict_places c = c.conflict_places

let dynamic_mcs c enabled =
  (* Connected components of the conflict relation restricted to [enabled]. *)
  let seen = ref (Bitset.empty (Bitset.width enabled)) in
  let components = ref [] in
  let explore root =
    if not (Bitset.mem root !seen) then begin
      let members = ref (Bitset.empty (Bitset.width enabled)) in
      let rec visit u =
        if Bitset.mem u enabled && not (Bitset.mem u !seen) then begin
          seen := Bitset.add u !seen;
          members := Bitset.add u !members;
          Bitset.iter visit c.conflicting.(u)
        end
      in
      visit root;
      components := !members :: !components
    end
  in
  Bitset.iter explore enabled;
  List.rev !components
