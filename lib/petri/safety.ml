type property = {
  name : string;
  never_all : Net.place list;
}

let monitor (net : Net.t) property =
  if property.never_all = [] then invalid_arg "Safety.monitor: empty cover";
  List.iter
    (fun p ->
      if p < 0 || p >= net.n_places then
        invalid_arg "Safety.monitor: unknown place in cover")
    property.never_all;
  (* The name must survive the parser round trip: the service journals
     monitored nets as text. *)
  let b = Builder.create (net.name ^ "." ^ property.name) in
  let places =
    Array.init net.n_places (fun p ->
        Builder.place b
          ~marked:(Bitset.mem p net.initial)
          net.place_names.(p))
  in
  let run = Builder.place b ~marked:true (property.name ^ ".run") in
  for t = 0 to net.n_transitions - 1 do
    let map ps = Array.to_list (Array.map (fun p -> places.(p)) ps) in
    ignore
      (Builder.transition b net.transition_names.(t)
         ~pre:(run :: map net.pre_list.(t))
         ~post:(run :: map net.post_list.(t)))
  done;
  (* [tick] masks genuine deadlocks of the original net. *)
  ignore (Builder.transition b (property.name ^ ".tick") ~pre:[ run ] ~post:[ run ]);
  (* [violate] halts everything exactly when the cover is reached. *)
  let cover = List.map (fun p -> places.(p)) property.never_all in
  ignore
    (Builder.transition b (property.name ^ ".violate") ~pre:(run :: cover)
       ~post:cover);
  Builder.build b

let covers property m = List.for_all (fun p -> Bitset.mem p m) property.never_all

(* The monitor keeps the original transitions at their original indices
   (the builder adds them first), then appends [tick] and [violate].
   Inverting a monitored firing sequence therefore cuts it at the first
   [violate] — the cover is reached exactly when it becomes enabled —
   and erases the [tick] self-loops; what remains is, index for index, a
   firing sequence of the original net. *)
let project_monitor_witness (net : Net.t) trace =
  let tick = net.n_transitions in
  let violate = net.n_transitions + 1 in
  let rec go acc = function
    | [] -> List.rev acc
    | t :: _ when t = violate -> List.rev acc
    | t :: rest when t = tick -> go acc rest
    | t :: rest -> go (t :: acc) rest
  in
  go [] trace

let covering_marking ?(max_states = 1_000_000) net property =
  let result = Reachability.explore ~max_states ~traces:true net in
  if Reachability.truncated result then
    failwith
      (Printf.sprintf "Safety: exploration stopped (%s)"
         (Guard.describe_stop result.stop));
  let found = ref None in
  Reachability.Marking_table.iter
    (fun m () -> if !found = None && covers property m then found := Some m)
    result.visited;
  Option.map (Reachability.trace_to result) !found

let violated_explicit ?max_states net property =
  covering_marking ?max_states net property <> None
