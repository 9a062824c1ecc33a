(* States (Definition 3.1): the pair ⟨m, r⟩ of per-place world sets
   and the valid-world set.  Invariant: m(p) ⊆ r for every place. *)

open struct
  module Bitset = Petri.Bitset
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

let mapping s =
  W.fold
    (fun v acc ->
      let m = denoted_marking s v in
      if List.exists (Bitset.equal m) acc then acc else m :: acc)
    s.r []
  |> List.sort Bitset.compare

let pp (net : Petri.Net.t) ppf s =
  let name = Petri.Net.transition_name net in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun p ws ->
      if not (W.is_empty ws) then
        Format.fprintf ppf "%s: %a@ " (Petri.Net.place_name net p)
          (W.pp ~name ()) ws)
    s.m;
  Format.fprintf ppf "r: %a@]" (W.pp ~name ()) s.r

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
