(* The generalized partial-order explorer.

   The explorer does not depend on the iteration order of world sets,
   which is interning order and differs between parallel runs: deviation
   restarts are collected per state and sorted by (normal-form key, root
   marking, transition, world) before being scheduled, and witness
   marking lists are sorted.  This makes results deterministic run to
   run.  The deviation scan itself, per denotation class, is [Scan].

   The engine is domain-safe end to end: world sets shard their
   hash-consing tables and keep their memo caches domain-local (see
   world_set.ml), [Bitset.intern] is striped, and the explorer's own
   per-analysis state is either walk-local or touched only by the
   coordinating domain between waves.  Analyses run concurrently (the
   portfolio races engines at full --jobs width) and a single analysis
   fans its runs out over a domain pool ([analyse ~jobs]). *)

open struct
  module Bitset = Petri.Bitset
  module W = World_set
end

module Marking_table = Petri.Reachability.Marking_table

type label = { multiples : Bitset.t; singles : Petri.Net.transition list }

type run = {
  root : Bitset.t;
  origin : origin;
  initial : State.t;
  predecessor : (label * State.t) State.Table.t;
  visited : unit State.Table.t;
}

and origin =
  | Init
  | Deviation of {
      parent : run;
      state : State.t;
      world : W.world;
      transition : Petri.Net.transition;
    }

type witness = {
  run : run;
  state : State.t;
  worlds : W.t;
  markings : Bitset.t list;
}

type result = {
  ctx : Dynamics.ctx;
  states : int;
  edges : int;
  runs : run list;
  deadlocks : witness list;
  stop : Guard.stop_reason;
}

let truncated result = result.stop <> Guard.Completed

(* Per-state enabling information, computed once. *)
type enabling = {
  s_enab : W.t array;  (* per transition *)
  m_enab : W.t array;  (* per transition; empty for non-choice *)
}

let enabling ctx s =
  let net = Dynamics.net ctx in
  let n = net.Petri.Net.n_transitions in
  let s_enab = Array.init n (fun t -> Dynamics.s_enabled ctx t s) in
  let choice = Dynamics.choice_transitions ctx in
  let m_enab =
    Array.init n (fun t ->
        if Bitset.mem t choice then W.filter_member t s_enab.(t) else W.empty)
  in
  { s_enab; m_enab }

(* Union of the presets of a choice transition's cluster partners:
   places whose marking decides whether a {e competitor} of [t] is
   enabled. *)
let partner_presets ctx =
  let net = Dynamics.net ctx in
  let conflict = Dynamics.conflict ctx in
  Array.init net.Petri.Net.n_transitions (fun t ->
      let cluster =
        Petri.Conflict.cluster_members conflict
          (Petri.Conflict.cluster_of conflict t)
      in
      Bitset.fold
        (fun t' acc ->
          if t' = t then acc else Bitset.union acc net.Petri.Net.pre.(t'))
        cluster
        (Bitset.empty net.Petri.Net.n_places))

(* Firing several transitions in one step is only deviation-safe when
   no batch member's output feeds the preset of another member's
   conflict partner: otherwise the step jumps over the intermediate
   marking in which that partner becomes enabled, and the deviation
   scan never sees the choice.  Deferred transitions stay
   multiple-enabled and fire in a later step; the fixpoint can only
   shrink, and a singleton batch can never skip a marking, so firing
   the lowest multiple alone is always a safe last resort. *)
let defer_unsafe_multiples ctx partner_pre en multiples singles =
  let net = Dynamics.net ctx in
  let conflict = Dynamics.conflict ctx in
  let batch_post tbatch =
    List.fold_left
      (fun acc u -> Bitset.union acc net.Petri.Net.post.(u))
      (Bitset.fold
         (fun u acc -> Bitset.union acc net.Petri.Net.post.(u))
         tbatch
         (Bitset.empty net.Petri.Net.n_places))
      singles
  in
  let rec fixpoint multiples =
    let keep =
      Bitset.fold
        (fun t acc ->
          let others = batch_post (Bitset.remove t multiples) in
          if Bitset.intersects others partner_pre.(t) then acc
          else Bitset.add t acc)
        multiples
        (Bitset.empty (Bitset.width multiples))
    in
    if Bitset.equal keep multiples then multiples else fixpoint keep
  in
  (* A world firing two transitions of the same cluster in one step
     skips the serialization in which the first firing re-enables a
     competitor of the second through a chain of other transitions,
     and the deviation scan cannot see it.  Keep at most one member
     per (cluster, overlapping worlds) group, firing first the
     transitions whose outputs feed some choice preset (they "open"
     re-entries whose conflicts must become visible). *)
  let serialize_same_cluster multiples =
    let choice_presets =
      Bitset.fold
        (fun t acc -> Bitset.union acc net.Petri.Net.pre.(t))
        (Dynamics.choice_transitions ctx)
        (Bitset.empty net.Petri.Net.n_places)
    in
    let opens t = Bitset.intersects net.Petri.Net.post.(t) choice_presets in
    let members = Bitset.elements multiples in
    let by_priority =
      List.sort
        (fun a b ->
          match Bool.compare (opens b) (opens a) with
          | 0 -> Int.compare a b
          | c -> c)
        members
    in
    List.fold_left
      (fun kept t ->
        let clashes u =
          u <> t
          && Petri.Conflict.cluster_of conflict u
             = Petri.Conflict.cluster_of conflict t
          && (not (Petri.Conflict.in_conflict conflict u t))
          && W.exists (fun v -> W.mem v en.m_enab.(u)) en.m_enab.(t)
        in
        if Bitset.exists clashes kept then kept else Bitset.add t kept)
      (Bitset.empty (Bitset.width multiples))
      by_priority
  in
  let kept = serialize_same_cluster (fixpoint multiples) in
  if Bitset.is_empty kept && not (Bitset.is_empty multiples) && singles = []
  then
    (* Precedence cycle with nothing else to fire: serialize by
       firing one transition alone.  The caller schedules restarts
       for the skipped "other transition first" interleavings. *)
    (Bitset.singleton (Bitset.width multiples) (Bitset.choose multiples), true)
  else (kept, false)

(* The transitions to fire from a state: all multiple-enabled choice
   transitions with the multiple rule, plus all single-enabled
   conflict-free transitions with the single rule, in one combined
   step (candidate MCSs first, matching the order of the paper's
   algorithm).  [None] when nothing is enabled; otherwise the label
   and the multiples a forced serialization skipped. *)
let successor_label ctx partner_pre en =
  let net = Dynamics.net ctx in
  let choice = Dynamics.choice_transitions ctx in
  let n = net.Petri.Net.n_transitions in
  let multiples = ref (Bitset.empty n) in
  let singles = ref [] in
  for t = n - 1 downto 0 do
    if Bitset.mem t choice then begin
      if not (W.is_empty en.m_enab.(t)) then multiples := Bitset.add t !multiples
    end
    else if not (W.is_empty en.s_enab.(t)) then singles := t :: !singles
  done;
  if Bitset.is_empty !multiples && !singles = [] then None
  else begin
    let fired, forced =
      defer_unsafe_multiples ctx partner_pre en !multiples !singles
    in
    let skipped = if forced then Bitset.diff !multiples fired else Bitset.empty n in
    Some ({ multiples = fired; singles = !singles }, skipped)
  end

let apply ctx s { multiples; singles } =
  Dynamics.step_fire ctx ~multiples ~singles s

(* Telemetry.  Counters mirror the result record exactly (asserted by
   the test suite): [gpo.states] = [result.states], [gpo.restarts] =
   [List.length result.runs - 1].  The worlds-per-state distribution
   and the scan/fire spans only run with a sink installed — cardinal
   and clock calls are not free, and the uninstrumented hot path must
   stay within noise of the seed. *)
let c_states = Gpo_obs.Counter.make "gpo.states"
let c_edges = Gpo_obs.Counter.make "gpo.edges"
let c_restarts = Gpo_obs.Counter.make "gpo.restarts"
let c_witnesses = Gpo_obs.Counter.make "gpo.deadlock_witnesses"
(* In (world, transition) deviations: a class candidate adds the
   number of worlds it stands for. *)
let c_deviations = Gpo_obs.Counter.make "gpo.deviations_scheduled"
let d_worlds = Gpo_obs.Dist.make "gpo.worlds_per_state"

(* Everything a walk produces, merged single-threaded between
   waves. *)
type walk_output = {
  wk_run : run;
  wk_devs : (State.t * Scan.candidate) list;
      (* state order; sorted within a state *)
  wk_wits : (State.t * W.t * Bitset.t list) list;  (* state order *)
  wk_denos : Bitset.t list;  (* normal forms new to this walk *)
}

let explore ?(scan = true) ?(max_states = 1_000_000) ?(max_deadlocks = 64)
    ?(jobs = 1) ?guard ctx =
  let net = Dynamics.net ctx in
  let choice = Dynamics.choice_transitions ctx in
  let partner_pre = partner_presets ctx in
  let scanner = Scan.create ctx in
  let n_transitions = net.Petri.Net.n_transitions in
  let roots_done = Marking_table.create 16 in
  let pending = Queue.create () in
  (* Coordinator-owned tables.  Wave workers read them concurrently
     but never write: the coordinator is the only writer, and it
     only writes between waves, so walks see a frozen snapshot and
     the reads need no lock. *)
  let seen_dead_markings = Marking_table.create 16 in
  (* Every classical marking denoted by some world of some visited
     state: that world's continued exploration (plus further
     deviation scans) covers the marking's future, so deviations into
     these markings need no restart. *)
  let denoted_global = Marking_table.create 64 in
  let total_states = Atomic.make 0 in
  let total_edges = Atomic.make 0 in
  let truncated = Atomic.make false in
  let runs_count = Atomic.make 0 in
  let deadlocks = ref [] in
  let witness_count = ref 0 in
  let runs = ref [] in
  Gpo_obs.Counter.touch c_states;
  Gpo_obs.Counter.touch c_edges;
  Gpo_obs.Counter.touch c_restarts;
  Gpo_obs.Counter.touch c_witnesses;
  W.touch_stats ();
  (* One run, explored in isolation: [do_walk] reads the frozen
     global tables plus walk-local overlays and writes only its own
     output record, so its result is a function of (root, origin)
     and the between-waves snapshot alone — independent of worker
     scheduling.  That is the whole determinism argument: jobs=1
     and jobs=N execute the same walks over the same snapshots and
     merge them in the same (dequeue) order. *)
  let do_walk (root, origin) =
    let run =
      {
        root;
        origin;
        initial = Dynamics.initial_of_marking ctx root;
        predecessor = State.Table.create 64;
        visited = State.Table.create 64;
      }
    in
    let visited = run.visited in
    (* Walk-local overlays over the frozen tables, reported back to
       the coordinator for the post-wave merge. *)
    let local_denoted = Marking_table.create 16 in
    let known key =
      Marking_table.mem denoted_global key || Marking_table.mem local_denoted key
    in
    let denos = ref [] in
    let local_dead = Marking_table.create 4 in
    let wits = ref [] in
    let devs = ref [] in
    (* A state has at most one successor, so a run is a path
       (possibly closing a cycle); we walk it carrying
       the previous state's rejection sets to scan only deviations
       that are new — a world that fires nothing keeps its tokens,
       hence its pending rejections, and those were already covered
       or restarted when they first appeared. *)
    let current = ref (Some (run.initial, Array.make n_transitions W.empty)) in
    State.Table.add visited run.initial ();
    Atomic.incr total_states;
    Gpo_obs.Counter.incr c_states;
    while !current <> None do
      (* One state expansion recomputes the full enabling relation
         over world sets — far heavier than an unmasked poll. *)
      Guard.check_now ?guard ();
      Guard.Fault.probe "gpo.step";
      let s, prev_rejections =
        match !current with Some v -> v | None -> assert false
      in
      current := None;
      let en = Gpo_obs.Span.time "gpo.enabling" (fun () -> enabling ctx s) in
      (* Opened here, so that the per-state telemetry and the dead-world
         check fall under a span too. *)
      let sp_scan = Gpo_obs.Span.enter "gpo.scan" in
      if Gpo_obs.enabled () then begin
        Gpo_obs.Dist.observe_int d_worlds (W.cardinal (State.valid s));
        Gpo_obs.Progress.sample "gpo" (fun () ->
            [
              ("states", Gpo_obs.I (Atomic.get total_states));
              ("edges", Gpo_obs.I (Atomic.get total_edges));
              ("runs", Gpo_obs.I (Atomic.get runs_count));
              ("worlds", Gpo_obs.I (W.cardinal (State.valid s)));
            ])
      end;
      (* Deviation restarts discovered while processing this state.
         World-set iteration order is interning order, which differs
         under parallel runs, so candidates are collected and sorted by
         content before being reported: the report order (hence
         everything downstream) is schedule-independent. *)
      let state_devs = ref [] in
      let defer candidates = state_devs := candidates @ !state_devs in
      (* The state's denotation classes, found only when some world
         needs its marking. *)
      let classes =
        lazy (Gpo_obs.Span.time "gpo.classes" (fun () -> Scan.classify scanner s))
      in
      (* Deadlock worlds: valid worlds enabling nothing. *)
      let live = Array.fold_left W.union W.empty en.s_enab in
      let dead = W.diff (State.valid s) live in
      if not (W.is_empty dead) then begin
        (* Candidate witness markings, pre-filtered against the
           frozen global table plus this walk's overlay.  The
           coordinator re-filters against the merged table and
           applies the witness cap — worker scheduling must not
           decide which witness survives. *)
        let fresh_markings =
          List.filter
            (fun m ->
              if
                Marking_table.mem seen_dead_markings m
                || Marking_table.mem local_dead m
              then false
              else begin
                Marking_table.add local_dead m ();
                true
              end)
            (Scan.markings_meeting (Lazy.force classes) dead)
          |> List.sort Bitset.compare
        in
        if fresh_markings <> [] then
          wits := (s, dead, fresh_markings) :: !wits
      end;
      (* Deviation scan: a world whose denoted marking enables a
         choice transition its label rejected must have that branch
         covered by a sibling world, or the analysis restarts from
         the deviating marking. *)
      let rejections =
        if scan then begin
          let r =
            Scan.run scanner (Lazy.force classes) ~known ~s_enab:en.s_enab
              ~m_enab:en.m_enab ~prev:prev_rejections
          in
          List.iter
            (fun m ->
              Marking_table.replace local_denoted m ();
              denos := m :: !denos)
            r.denotations;
          defer r.candidates;
          r.rejections
        end
        else Array.make n_transitions W.empty
      in
      Gpo_obs.Span.exit sp_scan;
      (* Fire: at most one label per state.  A rejection is carried
         to the next state only for worlds that did not fire in this
         step: a world that moved has a new denotation, so its
         pending rejections must be re-scanned there. *)
      let sp_fire = Gpo_obs.Span.enter "gpo.fire" in
      let restarts ~conditional t =
        defer
          (Scan.restarts scanner (Lazy.force classes) ~conditional ~known t
             en.m_enab.(t))
      in
      Option.iter
        (fun (label, skipped) ->
          (* Firing order was forced against the safe precedence:
             cover the "skipped transition first" interleavings by
             restarting from their firing markings. *)
          if scan then Bitset.iter (restarts ~conditional:true) skipped;
          let s' = apply ctx s label in
          Atomic.incr total_edges;
          Gpo_obs.Counter.incr c_edges;
          if State.Table.mem visited s' then begin
            if scan then
              (* Cycle closure: a multiple postponed on every step of
                 the cycle would otherwise never fire — restart from
                 its firing markings (usually redundant and
                 deduplicated; sound either way).  Every enabled
                 conflict-free transition fires in every step, so only
                 the choice transitions the label left out need it.
                 Unlike the in-run deviation scan, these restarts must
                 not be suppressed by the global denotation table: the
                 table's premise — that a denoted marking's future is
                 explored by its world — is exactly what the closing
                 cycle violated.  The root memoization still
                 deduplicates. *)
              Bitset.iter
                (fun t ->
                  if not (Bitset.mem t label.multiples) then
                    restarts ~conditional:false t)
                choice
          end
          else begin
            (* State-budget ticket: claim a slot, give it back when
               over budget.  At jobs=1 this is exactly the old
               sequential check; across domains the counter never
               over-admits. *)
            let ticket = Atomic.fetch_and_add total_states 1 in
            if ticket >= max_states then begin
              ignore (Atomic.fetch_and_add total_states (-1));
              Atomic.set truncated true
            end
            else begin
              let moved =
                List.fold_left
                  (fun acc t -> W.union acc en.s_enab.(t))
                  (Bitset.fold
                     (fun t acc -> W.union acc en.m_enab.(t))
                     label.multiples W.empty)
                  label.singles
              in
              let carried = Array.map (fun ws -> W.diff ws moved) rejections in
              State.Table.add visited s' ();
              Gpo_obs.Counter.incr c_states;
              State.Table.add run.predecessor s' (label, s);
              current := Some (s', carried)
            end
          end)
        (successor_label ctx partner_pre en);
      devs :=
        List.rev_append
          (List.map (fun dc -> (s, dc))
             (List.sort Scan.compare_candidates !state_devs))
          !devs;
      Gpo_obs.Span.exit sp_fire
    done;
    {
      wk_run = run;
      wk_devs = List.rev !devs;
      wk_wits = List.rev !wits;
      wk_denos = List.rev !denos;
    }
  in
  let schedule ~key root origin =
    if not (Marking_table.mem roots_done key) then begin
      Marking_table.add roots_done key ();
      Queue.add (root, origin) pending
    end
  in
  (* Post-wave merge, coordinator only, in dequeue order: replay a
     walk's denotations, witnesses and deviation candidates against
     the (now thawed) global tables.  Conditional candidates are
     re-checked against denotations merged from earlier walks;
     witness candidates are re-filtered and capped here so worker
     scheduling cannot decide which witness survives. *)
  let merge_walk w =
    (match w.wk_run.origin with
    | Init -> ()
    | Deviation _ -> Gpo_obs.Counter.incr c_restarts);
    runs := w.wk_run :: !runs;
    Atomic.incr runs_count;
    List.iter (fun m -> Marking_table.replace denoted_global m ()) w.wk_denos;
    List.iter
      (fun (state, worlds, candidates) ->
        let fresh =
          List.filter
            (fun m ->
              if Marking_table.mem seen_dead_markings m then false
              else begin
                Marking_table.add seen_dead_markings m ();
                true
              end)
            candidates
        in
        if fresh <> [] && !witness_count < max_deadlocks then begin
          incr witness_count;
          Gpo_obs.Counter.incr c_witnesses;
          deadlocks :=
            { run = w.wk_run; state; worlds; markings = fresh } :: !deadlocks
        end)
      w.wk_wits;
    List.iter
      (fun (state, (dc : Scan.candidate)) ->
        if not (dc.conditional && Marking_table.mem denoted_global dc.key) then begin
          Gpo_obs.Counter.add c_deviations dc.deviations;
          schedule ~key:dc.key dc.root
            (Deviation
               {
                 parent = w.wk_run;
                 state;
                 world = dc.world;
                 transition = dc.transition;
               })
        end)
      w.wk_devs
  in
  (* Wave loop: drain the whole pending queue, fan the walks out
     over the pool (each worker claims walks off a shared index,
     its lifetime bracketed by a [gpn.worker] span), then merge in
     dequeue order.  A wave that raises — budget trip, cancellation,
     injected fault — is not merged: its states are already counted
     in the shared atomics, so the telemetry invariants hold, but no
     partial run leaks into [result.runs]. *)
  let drain_waves pool =
    while not (Queue.is_empty pending) do
      Guard.check_now ?guard ();
      (* Explicit recursive drain: [Array.init] with a side-effecting
         body has unspecified evaluation order. *)
      let rec drain acc =
        if Queue.is_empty pending then List.rev acc
        else begin
          let item = Queue.pop pending in
          drain (item :: acc)
        end
      in
      let walks = Array.of_list (drain []) in
      let n = Array.length walks in
      let results = Array.make n None in
      let next_walk = Atomic.make 0 in
      let worker () =
        Gpo_obs.Span.time "gpn.worker" @@ fun () ->
        let rec claim () =
          let i = Atomic.fetch_and_add next_walk 1 in
          if i < n then begin
            results.(i) <- Some (do_walk walks.(i));
            claim ()
          end
        in
        claim ()
      in
      (match pool with
      | Some pool when n > 1 ->
          Par.Pool.run pool
            (List.init (min (Par.Pool.size pool) n) (fun _ -> worker))
      | _ -> worker ());
      Array.iter (function None -> () | Some w -> merge_walk w) results
    done
  in
  let interrupt = ref Guard.Completed in
  schedule ~key:net.Petri.Net.initial net.Petri.Net.initial Init;
  (try
     if jobs <= 1 then drain_waves None
     else Par.Pool.with_pool ~jobs (fun pool -> drain_waves (Some pool))
   with Guard.Interrupted reason -> interrupt := reason);
  {
    ctx;
    states = Atomic.get total_states;
    edges = Atomic.get total_edges;
    runs = List.rev !runs;
    deadlocks = List.rev !deadlocks;
    stop =
      (if !interrupt <> Guard.Completed then !interrupt
       else if Atomic.get truncated then Guard.State_budget
       else Guard.Completed);
  }

let analyse ?scan ?max_states ?max_deadlocks ?jobs ?guard net =
  explore ?scan ?max_states ?max_deadlocks ?jobs ?guard
    (Dynamics.make net)

let deadlock_free result = result.deadlocks = []

(* Transitions fired by world [v] along the run's path from its
   initial state to [target]. *)
let replay_in_world ?guard ctx run v target =
  let rec path s acc =
    Guard.check_cancelled ?guard ();
    Guard.Fault.probe "gpo.witness";
    match State.Table.find_opt run.predecessor s with
    | None -> acc
    | Some (label, s_prev) -> path s_prev ((s_prev, label) :: acc)
  in
  let steps = path target [] in
  List.concat_map
    (fun (s, label) ->
      let fired_multiples =
        Bitset.fold
          (fun t acc ->
            if W.mem v (Dynamics.m_enabled ctx t s) then t :: acc else acc)
          label.multiples []
        |> List.rev
      in
      let fired_singles =
        List.filter (fun t -> W.mem v (Dynamics.s_enabled ctx t s)) label.singles
      in
      fired_multiples @ fired_singles)
    steps

(* Classical trace from the net's initial marking to the run's
   root. *)
let rec root_trace ?guard ctx run =
  match run.origin with
  | Init -> []
  | Deviation { parent; state; world; transition } ->
      root_trace ?guard ctx parent
      @ replay_in_world ?guard ctx parent world state
      @ [ transition ]

let d_witness_len = Gpo_obs.Dist.make "gpo.witness.length"

let deadlock_trace ?guard result witness =
  Gpo_obs.Span.time "gpo.witness" @@ fun () ->
  let ctx = result.ctx in
  let v = W.choose witness.worlds in
  let trace =
    root_trace ?guard ctx witness.run
    @ replay_in_world ?guard ctx witness.run v witness.state
  in
  Gpo_obs.Dist.observe_int d_witness_len (List.length trace);
  trace

let pp_summary ppf result =
  Format.fprintf ppf "%s (GPO): %d states, %d edges, %d run(s), %s%s"
    (Dynamics.net result.ctx).Petri.Net.name result.states result.edges
    (List.length result.runs)
    (if result.deadlocks = [] then "deadlock free"
     else Printf.sprintf "%d deadlock witness(es)" (List.length result.deadlocks))
    (if truncated result then
       Printf.sprintf " (stopped: %s)" (Guard.describe_stop result.stop)
     else "")
