type heuristic = First_seed | Smallest

(* Telemetry: size of the stubborn set actually fired at each marking
   (the quality measure of the reduction — smaller is better), and how
   many closure computations the Smallest heuristic pays for it. *)
let d_set_size = Gpo_obs.Dist.make "stubborn.set_size"
let c_closures = Gpo_obs.Counter.make "stubborn.closures"

(* Closure of the stubborn-set conditions from a seed transition.
   Returns the enabled members of the resulting stubborn set. *)
let closure conflict m seed =
  let net = Conflict.net conflict in
  let n = net.Net.n_transitions in
  let in_set = Array.make n false in
  let enabled_members = ref [] in
  let n_enabled = ref 0 in
  let queue = Queue.create () in
  let push t =
    if not in_set.(t) then begin
      in_set.(t) <- true;
      Queue.add t queue
    end
  in
  push seed;
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    if Semantics.enabled net t m then begin
      enabled_members := t :: !enabled_members;
      incr n_enabled;
      Bitset.iter push (Conflict.conflicting conflict t)
    end
    else begin
      (* Pick the unmarked input place with the fewest producers: all of
         them must join the set, so fewer producers keeps the set small. *)
      let best = ref (-1) in
      let best_cost = ref max_int in
      Array.iter
        (fun p ->
          if not (Bitset.mem p m) then begin
            let cost = Array.length net.Net.producers.(p) in
            if cost < !best_cost then begin
              best := p;
              best_cost := cost
            end
          end)
        net.Net.pre_list.(t);
      (* [t] is disabled so some input place is unmarked, unless its preset
         is empty — an always-enabled source transition cannot be disabled,
         but then it would have been classified enabled above. *)
      assert (!best >= 0);
      Array.iter push net.Net.producers.(!best)
    end
  done;
  (List.rev !enabled_members, !n_enabled)

let compute conflict heuristic m =
  let net = Conflict.net conflict in
  let enabled = Semantics.enabled_set net m in
  let chosen =
    if Bitset.is_empty enabled then []
    else
      match heuristic with
      | First_seed ->
          Gpo_obs.Counter.incr c_closures;
          fst (closure conflict m (Bitset.choose enabled))
      | Smallest ->
          let best = ref [] in
          let best_size = ref max_int in
          Bitset.iter
            (fun seed ->
              if !best_size > 1 then begin
                Gpo_obs.Counter.incr c_closures;
                let members, size = closure conflict m seed in
                if size < !best_size then begin
                  best := members;
                  best_size := size
                end
              end)
            enabled;
          !best
  in
  if chosen <> [] then Gpo_obs.Dist.observe_int d_set_size (List.length chosen);
  chosen

let strategy ?(heuristic = Smallest) conflict : Reachability.strategy =
 fun _net m -> compute conflict heuristic m

let explore ?heuristic ?max_states ?max_deadlocks ?traces ?cancel ?guard net =
  let conflict = Conflict.analyse net in
  Reachability.explore ~strategy:(strategy ?heuristic conflict) ?max_states
    ?max_deadlocks ?traces ?cancel ?guard net
