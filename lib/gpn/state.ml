(* States (Definition 3.1): the pair ⟨m, r⟩ of per-place world sets
   and the valid-world set.  Invariant: m(p) ⊆ r for every place. *)

open struct
  module Bitset = Petri.Bitset
  module Marking_table = Petri.Reachability.Marking_table
  module W = World_set
end

type t = { m : W.t array; r : W.t }

let make m r = { m = Array.map (fun ws -> W.inter ws r) m; r }

let marking s p = s.m.(p)
let valid s = s.r

(* Both of these are pointer comparisons / stored-id reads per
   component: world sets are hash-consed. *)
let equal a b =
  W.equal a.r b.r
  && Array.length a.m = Array.length b.m
  && Array.for_all2 W.equal a.m b.m

let compare a b =
  let c = W.compare a.r b.r in
  if c <> 0 then c
  else begin
    let n = Array.length a.m and n' = Array.length b.m in
    let c = Int.compare n n' in
    if c <> 0 then c
    else begin
      let rec loop i =
        if i >= n then 0
        else begin
          let c = W.compare a.m.(i) b.m.(i) in
          if c <> 0 then c else loop (i + 1)
        end
      in
      loop 0
    end
  end

let hash s =
  Array.fold_left (fun acc ws -> (acc * 486187739) + W.hash ws) (W.hash s.r) s.m

let denoted_marking s v =
  let n_places = Array.length s.m in
  let rec loop p acc =
    if p < 0 then acc
    else loop (p - 1) (if W.mem v s.m.(p) then Bitset.add p acc else acc)
  in
  loop (n_places - 1) (Bitset.empty n_places)

(* One world at a time, independent of [Scan]'s class descent: the
   validator and the tests use it as the reference. *)
let mapping s =
  let seen = Marking_table.create 16 in
  W.fold
    (fun v acc ->
      let m = denoted_marking s v in
      if Marking_table.mem seen m then acc
      else begin
        Marking_table.add seen m ();
        m :: acc
      end)
    s.r []
  |> List.sort Bitset.compare

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
