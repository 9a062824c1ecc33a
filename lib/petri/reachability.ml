module Marking_table = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

type strategy = Net.t -> Bitset.t -> Net.transition list

(* Telemetry: shared by the conventional and stubborn-set engines (the
   strategy is the only difference between them). *)
let c_states = Gpo_obs.Counter.make "reach.states"
let c_edges = Gpo_obs.Counter.make "reach.edges"
let c_dedup_hits = Gpo_obs.Counter.make "reach.dedup_hits"
let c_deadlocks = Gpo_obs.Counter.make "reach.deadlocks"
let g_load_factor = Gpo_obs.Gauge.make "reach.table.load_factor"

type result = {
  net : Net.t;
  states : int;
  edges : int;
  deadlocks : Bitset.t list;
  deadlock_count : int;
  unsafe : (Net.transition * Bitset.t) list;
  stop : Guard.stop_reason;
  predecessor : (Net.transition * Bitset.t) Marking_table.t option;
  visited : unit Marking_table.t;
}

let truncated result = result.stop <> Guard.Completed
let full (net : Net.t) m = Bitset.elements (Semantics.enabled_set net m)

(* Visited-table size hint from a cheap structural bound: a safe net
   has at most 2^places reachable markings, and the state budget caps
   the table anyway.  Pre-sizing to the (capped) bound avoids the
   rehash cascade on nets that blow past the default 4096 buckets. *)
let table_size_hint (net : Net.t) max_states =
  let structural =
    if net.Net.n_places < 20 then 1 lsl net.Net.n_places else max_int
  in
  max 4096 (min 1_048_576 (min structural max_states))

let report_load_factor table =
  let stats = Marking_table.stats table in
  Gpo_obs.Gauge.set g_load_factor
    (float_of_int stats.Hashtbl.num_bindings
    /. float_of_int (max 1 stats.Hashtbl.num_buckets))

let explore ?(strategy = full) ?(max_states = 10_000_000) ?(max_deadlocks = 16)
    ?(traces = false) ?guard (net : Net.t) =
  let size_hint = table_size_hint net max_states in
  let visited = Marking_table.create size_hint in
  let predecessor = if traces then Some (Marking_table.create size_hint) else None in
  let queue = Queue.create () in
  let edges = ref 0 in
  let deadlocks = ref [] in
  let deadlock_count = ref 0 in
  let unsafe = ref [] in
  let unsafe_count = ref 0 in
  let truncated = ref false in
  let interrupt = ref Guard.Completed in
  Gpo_obs.Counter.touch c_states;
  Gpo_obs.Counter.touch c_edges;
  Gpo_obs.Counter.touch c_dedup_hits;
  let enqueue m =
    Marking_table.add visited m ();
    Gpo_obs.Counter.incr c_states;
    Queue.add m queue
  in
  enqueue net.initial;
  (try
     while not (Queue.is_empty queue) do
       Guard.check ?guard ();
       Guard.Fault.probe "reach.step";
       let m = Queue.pop queue in
       Gpo_obs.Progress.sample "reach" (fun () ->
           [
             ("states", Gpo_obs.I (Marking_table.length visited));
             ("frontier", Gpo_obs.I (Queue.length queue));
             ("edges", Gpo_obs.I !edges);
           ]);
       let to_fire = strategy net m in
       if Semantics.is_deadlock net m then begin
         incr deadlock_count;
         Gpo_obs.Counter.incr c_deadlocks;
         if !deadlock_count <= max_deadlocks then deadlocks := m :: !deadlocks
       end;
       let fire t =
         let m', safe = Semantics.fire net t m in
         incr edges;
         Gpo_obs.Counter.incr c_edges;
         if not safe then begin
           incr unsafe_count;
           if !unsafe_count <= max_deadlocks then unsafe := (t, m) :: !unsafe
         end;
         if Marking_table.mem visited m' then Gpo_obs.Counter.incr c_dedup_hits
         else
           if Marking_table.length visited >= max_states then truncated := true
           else begin
             enqueue m';
             match predecessor with
             | Some table -> Marking_table.add table m' (t, m)
             | None -> ()
           end
       in
       List.iter fire to_fire
     done
   with Guard.Interrupted reason -> interrupt := reason);
  report_load_factor visited;
  let stop =
    (* A budget interrupt ended the run; a mere state-budget overflow
       only stopped it from growing. *)
    if !interrupt <> Guard.Completed then !interrupt
    else if !truncated then Guard.State_budget
    else Guard.Completed
  in
  {
    net;
    states = Marking_table.length visited;
    edges = !edges;
    deadlocks = List.rev !deadlocks;
    deadlock_count = !deadlock_count;
    unsafe = List.rev !unsafe;
    stop;
    predecessor;
    visited;
  }

let trace_to ?guard result m =
  match result.predecessor with
  | None -> invalid_arg "Reachability.trace_to: explore was run without ~traces:true"
  | Some table ->
      if not (Marking_table.mem result.visited m) then raise Not_found;
      let rec walk m acc =
        Guard.check_cancelled ?guard ();
        Guard.Fault.probe "reach.witness";
        match Marking_table.find_opt table m with
        | None -> acc
        | Some (t, m_pred) -> walk m_pred (t :: acc)
      in
      walk m []

let deadlock_free result = result.deadlock_count = 0

let pp_summary ppf result =
  Format.fprintf ppf "%s: %d states, %d edges, %d deadlock(s)%s%s" result.net.Net.name
    result.states result.edges result.deadlock_count
    (if result.unsafe = [] then "" else ", UNSAFE")
    (if truncated result then
       Printf.sprintf " (stopped: %s)" (Guard.describe_stop result.stop)
     else "")
