type stop_reason =
  | Completed
  | State_budget
  | Deadline
  | Memory
  | Cancelled
  | Crashed of string

let string_of_stop = function
  | Completed -> "completed"
  | State_budget -> "state_budget"
  | Deadline -> "deadline"
  | Memory -> "memory"
  | Cancelled -> "cancelled"
  | Crashed msg -> "crashed: " ^ msg

let stop_of_string = function
  | "completed" -> Some Completed
  | "state_budget" -> Some State_budget
  | "deadline" -> Some Deadline
  | "memory" -> Some Memory
  | "cancelled" -> Some Cancelled
  | s ->
      let prefix = "crashed: " in
      if String.starts_with ~prefix s then
        Some
          (Crashed
             (String.sub s (String.length prefix)
                (String.length s - String.length prefix)))
      else None

let describe_stop = function
  | Completed -> "completed"
  | State_budget -> "state budget exhausted"
  | Deadline -> "wall-clock deadline exceeded"
  | Memory -> "memory budget exceeded"
  | Cancelled -> "cancelled"
  | Crashed msg -> "crashed: " ^ msg

exception Interrupted of stop_reason

let () =
  Printexc.register_printer (function
    | Interrupted r -> Some ("Guard.Interrupted(" ^ string_of_stop r ^ ")")
    | _ -> None)

let c_deadline_trips = Gpo_obs.Counter.make "guard.deadline.trips"
let c_mem_trips = Gpo_obs.Counter.make "guard.mem.trips"
let c_cancel_trips = Gpo_obs.Counter.make "guard.cancel.trips"

let word_bytes = Sys.word_size / 8

(* [poll] re-reads the clock and heap every [poll_mask + 1] = 64 calls;
   bench/main.exe guard measures what that costs (BENCH_guard.json). *)
let poll_mask = 63

type t = {
  parent : t option;
  deadline : float;  (** absolute [Unix.gettimeofday] time; [infinity] = none *)
  mem_words : int;  (** soft heap budget in words; [max_int] = none *)
  tripped : stop_reason option Atomic.t;
  mutable countdown : int;
      (* Written by every [poll]: a guard polled from several domains
         at once would bounce this field between their caches, so each
         domain polls a guard of its own and shares trips through
         [parent]. *)
}

let trip g reason =
  if Atomic.compare_and_set g.tripped None (Some reason) then begin
    (match reason with
    | Deadline -> Gpo_obs.Counter.incr c_deadline_trips
    | Memory -> Gpo_obs.Counter.incr c_mem_trips
    | Cancelled -> Gpo_obs.Counter.incr c_cancel_trips
    | _ -> ());
    Gpo_obs.instant "guard.trip"
      [ ("reason", Gpo_obs.S (string_of_stop reason)) ]
  end

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let create ?parent ?deadline_s ?mem_mb () =
  let deadline =
    match deadline_s with
    | None -> infinity
    | Some s -> Unix.gettimeofday () +. s
  in
  let mem_words =
    match mem_mb with
    | None -> max_int
    | Some mb -> max 1 mb * 1024 * 1024 / word_bytes
  in
  { parent; deadline; mem_words; tripped = Atomic.make None; countdown = 0 }

(* The guard's own trip first, then its ancestors', nearest first. *)
let rec tripped g =
  match Atomic.get g.tripped with
  | Some _ as r -> r
  | None -> ( match g.parent with None -> None | Some p -> tripped p)

let rec recheck g =
  (* Inclusive comparison: a deadline of now (deadline_s = 0.0) is
     already expired even when the clock has not ticked past it — the
     strict form made zero-budget runs racy against the microsecond
     clock resolution. *)
  if g.deadline < infinity && Unix.gettimeofday () >= g.deadline then
    trip g Deadline;
  if g.mem_words < max_int && heap_words () >= g.mem_words then trip g Memory;
  match g.parent with None -> () | Some p -> recheck p

let raise_if_tripped g =
  match tripped g with
  | Some reason -> raise (Interrupted reason)
  | None -> ()

let poll_now g =
  raise_if_tripped g;
  recheck g;
  raise_if_tripped g

let poll g =
  raise_if_tripped g;
  let n = g.countdown in
  if n <= 0 then begin
    g.countdown <- poll_mask;
    recheck g;
    raise_if_tripped g
  end
  else g.countdown <- n - 1

let check ?guard () = match guard with None -> () | Some g -> poll g
let check_now ?guard () = match guard with None -> () | Some g -> poll_now g

let rec cancelled g =
  Atomic.get g.tripped = Some Cancelled
  || match g.parent with None -> false | Some p -> cancelled p

let check_cancelled ?guard () =
  match guard with
  | Some g when cancelled g -> raise (Interrupted Cancelled)
  | _ -> ()

let stop g = match tripped g with Some r -> r | None -> Completed

(* ------------------------------------------------------------------ *)
(* Memory-pressure hooks                                               *)

let pressure_hooks : (unit -> unit) list Atomic.t = Atomic.make []

let rec on_memory_pressure f =
  let hooks = Atomic.get pressure_hooks in
  if not (Atomic.compare_and_set pressure_hooks hooks (f :: hooks)) then
    on_memory_pressure f

let relieve_memory () =
  List.iter
    (fun f -> try f () with _ -> ())
    (Atomic.get pressure_hooks);
  Gc.compact ()

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)

module Fault = struct
  type kind = Oom | Delay | Cancel

  type config = {
    seed : int;
    rate : float;
    kinds : kind array;
    sites : string list;  (** empty = every probe point *)
    max_injections : int;  (** negative = unlimited *)
  }

  let c_injected = Gpo_obs.Counter.make "fault.injected"
  let config : config option Atomic.t = Atomic.make None
  let injected_total = Atomic.make 0

  (* Per-site call counters: the PRNG is keyed on (seed, site, call
     index), so a schedule depends only on how often each probe point
     is reached — deterministic for sequential runs with a fixed
     seed. *)
  let site_counters : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 16
  let site_lock = Mutex.create ()

  let site_counter site =
    Mutex.lock site_lock;
    let c =
      match Hashtbl.find_opt site_counters site with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.add site_counters site c;
          c
    in
    Mutex.unlock site_lock;
    c

  let enable ?(rate = 0.01) ?(kinds = [ Oom; Delay; Cancel ]) ?(sites = [])
      ?(max_injections = -1) seed =
    if kinds = [] then invalid_arg "Guard.Fault.enable: empty kind list";
    Gpo_obs.Counter.touch c_injected;
    Mutex.lock site_lock;
    Hashtbl.reset site_counters;
    Mutex.unlock site_lock;
    Atomic.set injected_total 0;
    Atomic.set config
      (Some { seed; rate; kinds = Array.of_list kinds; sites; max_injections })

  let disable () = Atomic.set config None
  let enabled () = Atomic.get config <> None
  let injected () = Atomic.get injected_total

  (* Splitmix-flavoured mixer over native ints (constants kept inside
     the 63-bit literal range). *)
  let mix seed site_hash n =
    let h = ref (seed lxor (site_hash * 0x9E3779B9) lxor (n * 0x2545F4914F6CDD1D)) in
    h := !h lxor (!h lsr 30);
    h := !h * 0x1B873593;
    h := !h lxor (!h lsr 27);
    h := !h * 0x19D699A5;
    h := !h lxor (!h lsr 31);
    !h land max_int

  let kind_label = function Oom -> "oom" | Delay -> "delay" | Cancel -> "cancel"

  let inject cfg site h =
    Atomic.incr injected_total;
    Gpo_obs.Counter.incr c_injected;
    let kind = cfg.kinds.(h lsr 24 mod Array.length cfg.kinds) in
    Gpo_obs.instant "fault.injected"
      [ ("site", Gpo_obs.S site); ("kind", Gpo_obs.S (kind_label kind)) ];
    match kind with
    | Oom -> raise Out_of_memory
    | Delay -> Unix.sleepf 2e-4
    | Cancel -> raise (Interrupted Cancelled)

  let probe site =
    match Atomic.get config with
    | None -> ()
    | Some cfg ->
        if cfg.sites = [] || List.mem site cfg.sites then begin
          let n = Atomic.fetch_and_add (site_counter site) 1 in
          let h = mix cfg.seed (Hashtbl.hash site) n in
          if
            float_of_int (h land 0xFFFFFF) /. 16777216.0 < cfg.rate
            && (cfg.max_injections < 0
               || Atomic.get injected_total < cfg.max_injections)
          then inject cfg site h
        end

  let with_faults ?rate ?kinds ?sites ?max_injections seed f =
    enable ?rate ?kinds ?sites ?max_injections seed;
    Fun.protect ~finally:disable f
end
