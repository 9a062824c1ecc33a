module Internal = struct
  type encoding = {
    manager : Bdd.manager;
    n_places : int;
    current : int -> int;
    next : int -> int;
    initial : Bdd.t;
    enabled : Bdd.t array;
    relations : Bdd.t array;
  }

  let current p = 2 * p
  let next p = (2 * p) + 1

  let encode (net : Petri.Net.t) =
    let m = Bdd.manager () in
    let n_places = net.n_places in
    let initial =
      Bdd.conj m
        (List.init n_places (fun p ->
             if Petri.Bitset.mem p net.initial then Bdd.var m (current p)
             else Bdd.nvar m (current p)))
    in
    let enabled =
      Array.init net.n_transitions (fun t ->
          Bdd.conj m
            (Array.to_list net.pre_list.(t)
            |> List.map (fun p -> Bdd.var m (current p))))
    in
    let relations =
      Array.init net.n_transitions (fun t ->
          let pre = net.pre.(t) and post = net.post.(t) in
          let update =
            List.init n_places (fun p ->
                let in_pre = Petri.Bitset.mem p pre in
                let in_post = Petri.Bitset.mem p post in
                if in_post then Bdd.var m (next p)
                else if in_pre then Bdd.nvar m (next p)
                else Bdd.iff m (Bdd.var m (next p)) (Bdd.var m (current p)))
          in
          Bdd.and_ m enabled.(t) (Bdd.conj m update))
    in
    { manager = m; n_places; current; next; initial; enabled; relations }

  let marking_of_cube enc cube =
    List.fold_left
      (fun acc (v, b) ->
        if b && v land 1 = 0 then Petri.Bitset.add (v / 2) acc else acc)
      (Petri.Bitset.empty enc.n_places)
      cube

  let current_vars enc = List.init enc.n_places enc.current
  let next_vars enc = List.init enc.n_places enc.next

  let cube_of_marking enc m =
    Bdd.conj enc.manager
      (List.init enc.n_places (fun p ->
           if Petri.Bitset.mem p m then Bdd.var enc.manager (enc.current p)
           else Bdd.nvar enc.manager (enc.current p)))

  let preimage enc rel target =
    (* [target] ranges over current variables; shift it onto the next
       variables (v ↦ v + 1 is strictly monotone on the all-even
       support), conjoin with the relation and quantify the next
       variables away — what remains are the one-step predecessors,
       over current variables. *)
    let shifted = Bdd.rename_monotone enc.manager (fun v -> v + 1) target in
    Bdd.and_exists enc.manager (next_vars enc) shifted rel

  let shift_next_to_current enc t =
    (* next vars are odd = current + 1; the map v ↦ v - 1 on odd vars is
       strictly monotone on the support (all-next) of the quantified
       result. *)
    Bdd.rename_monotone enc.manager (fun v -> v - 1) t

  let image_one enc rel set =
    let quantified = Bdd.and_exists enc.manager (current_vars enc) set rel in
    shift_next_to_current enc quantified

  let image enc set =
    Array.fold_left
      (fun acc rel -> Bdd.or_ enc.manager acc (image_one enc rel set))
      (Bdd.zero enc.manager) enc.relations
end

type result = {
  states : float;
  iterations : int;
  peak_live_nodes : int;
  peak_set_nodes : int;
  deadlock : Petri.Bitset.t option;
  witness : Petri.Net.transition list option;
  stop : Guard.stop_reason;
  time_s : float;
}

let truncated result = result.stop <> Guard.Completed

(* Telemetry: fixpoint progress and unique-table health. *)
let c_iterations = Gpo_obs.Counter.make "smv.iterations"
let g_peak_live = Gpo_obs.Gauge.make "smv.peak_live_nodes"
let g_peak_set = Gpo_obs.Gauge.make "smv.peak_set_nodes"
let g_unique_size = Gpo_obs.Gauge.make "bdd.unique.size"
let g_unique_load = Gpo_obs.Gauge.make "bdd.unique.load_factor"
let d_witness_len = Gpo_obs.Dist.make "smv.witness.length"

(* Layered backward reconstruction.  The frontier BDDs of the forward
   fixpoint are BFS layers: a marking first reached in layer [i] has,
   by construction of [fresh], a one-step predecessor in layer [i - 1].
   Walking the layers backwards — at each step scanning the partitioned
   relations for a transition whose preimage of the current marking
   meets the previous layer — yields a shortest firing sequence from
   the initial marking to [target]. *)
let reconstruct ?guard enc layers target =
  let m = enc.Internal.manager in
  let member marking layer =
    not (Bdd.is_zero (Bdd.and_ m layer (Internal.cube_of_marking enc marking)))
  in
  let depth =
    let rec find i =
      if i >= Array.length layers then
        invalid_arg "Symbolic.reconstruct: marking outside the layered frontier"
      else if member target layers.(i) then i
      else find (i + 1)
    in
    find 0
  in
  let rec walk i marking acc =
    Guard.check_cancelled ?guard ();
    Guard.Fault.probe "smv.witness";
    if i = 0 then acc
    else begin
      let cube = Internal.cube_of_marking enc marking in
      let rec try_transition t =
        if t >= Array.length enc.Internal.relations then
          invalid_arg "Symbolic.reconstruct: no predecessor in the previous layer"
        else begin
          let pred =
            Bdd.and_ m
              (Internal.preimage enc enc.Internal.relations.(t) cube)
              layers.(i - 1)
          in
          if Bdd.is_zero pred then try_transition (t + 1)
          else (t, Internal.marking_of_cube enc (Bdd.any_sat pred))
        end
      in
      let t, predecessor = try_transition 0 in
      walk (i - 1) predecessor (t :: acc)
    end
  in
  walk depth target []

let analyse ?(witness = false) ?guard (net : Petri.Net.t) =
  let t0 = Unix.gettimeofday () in
  Gpo_obs.Counter.touch c_iterations;
  let enc = Gpo_obs.Span.time "smv.encode" (fun () -> Internal.encode net) in
  let m = enc.manager in
  let peak_set = ref (Bdd.size enc.initial) in
  (* BFS layers for witness reconstruction, newest first; only retained
     when a witness was requested (each layer pins its BDD live). *)
  let layers = ref [ enc.initial ] in
  let reached = ref enc.initial in
  let frontier = ref enc.initial in
  let iterations = ref 0 in
  let interrupt = ref Guard.Completed in
  (* One fixpoint iteration dwarfs a clock read, so the guard is polled
     unmasked here.  An interrupt keeps the layers accumulated so far:
     every marking in the partial [reached] really is reachable, so a
     deadlock found below is still a sound verdict — only a clean
     "no deadlock" becomes inconclusive. *)
  (try
     while not (Bdd.is_zero !frontier) do
       Guard.check_now ?guard ();
       Guard.Fault.probe "smv.iter";
       let successors =
         Gpo_obs.Span.time "smv.image" (fun () -> Internal.image enc !frontier)
       in
       let fresh = Bdd.and_ m successors (Bdd.not_ m !reached) in
       if witness && not (Bdd.is_zero fresh) then layers := fresh :: !layers;
       reached := Bdd.or_ m !reached fresh;
       let set_size = Bdd.size !reached in
       if set_size > !peak_set then peak_set := set_size;
       Gpo_obs.Counter.incr c_iterations;
       incr iterations;
       Gpo_obs.Progress.sample "smv" (fun () ->
           [
             ("iterations", Gpo_obs.I !iterations);
             ("live_nodes", Gpo_obs.I (Bdd.live_nodes m));
             ("set_nodes", Gpo_obs.I set_size);
           ]);
       frontier := fresh
     done
   with Guard.Interrupted reason -> interrupt := reason);
  let reached = !reached and iterations = !iterations in
  Gpo_obs.Gauge.set_int g_peak_live (Bdd.peak_nodes m);
  Gpo_obs.Gauge.set_int g_peak_set !peak_set;
  Gpo_obs.Gauge.set_int g_unique_size (Bdd.live_nodes m);
  Gpo_obs.Gauge.set g_unique_load (Bdd.unique_load_factor m);
  let states = Bdd.sat_count m net.n_places
      (* reached ranges over current variables only; renumber them to a
         compact range for counting: current vars are exactly the even
         ones, so divide by two monotonically. *)
      (Bdd.rename_monotone m (fun v -> v / 2) reached)
  in
  let any_enabled = Bdd.disj m (Array.to_list enc.enabled) in
  let dead_set = Bdd.and_ m reached (Bdd.not_ m any_enabled) in
  let deadlock =
    if Bdd.is_zero dead_set then None
    else Some (Internal.marking_of_cube enc (Bdd.any_sat dead_set))
  in
  let witness =
    match deadlock with
    | Some dead when witness ->
        Some
          (Gpo_obs.Span.time "smv.witness" (fun () ->
               let trace =
                 reconstruct ?guard enc (Array.of_list (List.rev !layers)) dead
               in
               Gpo_obs.Dist.observe_int d_witness_len (List.length trace);
               trace))
    | _ -> None
  in
  {
    states;
    iterations;
    peak_live_nodes = Bdd.peak_nodes m;
    peak_set_nodes = !peak_set;
    deadlock;
    witness;
    stop = !interrupt;
    time_s = Unix.gettimeofday () -. t0;
  }
