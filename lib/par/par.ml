(* Multicore execution primitives for the verification engines: a
   cooperative cancellation token and a fixed pool of OCaml 5 domains.

   The engines themselves stay written in direct style; the parallel
   drivers (the GPO explorer's waves, Harness.Portfolio, the service
   scheduler) build on these two pieces.  Everything here is
   domain-safe; the only global state is the telemetry counters, which
   are atomic. *)

(* Telemetry: how often cancellation was requested and how often a
   running engine actually observed a request and stopped.  The
   portfolio tests assert on [par.cancel.observed] to prove the losers
   were cancelled rather than left to finish. *)
let c_cancel_requests = Gpo_obs.Counter.make "par.cancel.requests"
let c_cancel_observed = Gpo_obs.Counter.make "par.cancel.observed"
let c_tasks = Gpo_obs.Counter.make "par.pool.tasks"

module Cancel = struct
  type t = bool Atomic.t

  exception Cancelled

  let create () = Atomic.make false

  let cancel t =
    if not (Atomic.exchange t true) then begin
      Gpo_obs.Counter.incr c_cancel_requests;
      Gpo_obs.instant "cancel.requested" []
    end

  let is_set t = Atomic.get t

  let check t =
    if Atomic.get t then begin
      Gpo_obs.Counter.incr c_cancel_observed;
      Gpo_obs.instant "cancel.observed" [];
      raise Cancelled
    end

  let check_opt = function None -> () | Some t -> check t
  let is_set_opt = function None -> false | Some t -> Atomic.get t
end

module Pool = struct
  type t = {
    jobs : int;  (* total workers, including the calling domain *)
    mutex : Mutex.t;
    work : Condition.t;  (* tasks were queued, or shutdown was requested *)
    idle : Condition.t;  (* [pending] dropped to zero *)
    queue : (unit -> unit) Queue.t;
    mutable pending : int;  (* tasks queued or currently running *)
    mutable stop : bool;
    mutable domains : unit Domain.t list;
  }

  let default_jobs () = Domain.recommended_domain_count ()
  let resolve_jobs n = if n <= 0 then default_jobs () else n

  let size pool = pool.jobs

  (* Helper: execute one task and account for its completion.  Called
     with the pool mutex HELD; returns with it held again. *)
  let run_task pool task =
    Mutex.unlock pool.mutex;
    task ();
    Mutex.lock pool.mutex;
    pool.pending <- pool.pending - 1;
    if pool.pending = 0 then Condition.broadcast pool.idle

  let worker pool =
    Mutex.lock pool.mutex;
    let rec loop () =
      if pool.stop then Mutex.unlock pool.mutex
      else
        match Queue.take_opt pool.queue with
        | Some task ->
            run_task pool task;
            loop ()
        | None ->
            Condition.wait pool.work pool.mutex;
            loop ()
    in
    loop ()

  let shutdown pool =
    Mutex.lock pool.mutex;
    pool.stop <- true;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    List.iter Domain.join pool.domains;
    pool.domains <- []

  let create ?jobs () =
    let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
    let pool =
      {
        jobs;
        mutex = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        queue = Queue.create ();
        pending = 0;
        stop = false;
        domains = [];
      }
    in
    (* A spawn fails once OCaml's cap on live domains is reached.  The
       workers spawned before it would wait on [work] forever, so stop
       and join them before re-raising. *)
    (try
       for _ = 2 to jobs do
         pool.domains <- Domain.spawn (fun () -> worker pool) :: pool.domains
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       shutdown pool;
       Printexc.raise_with_backtrace e bt);
    pool

  (* Run every thunk to completion, the calling domain participating as
     a worker.  Exceptions do not tear the pool down: the first one (in
     completion order) is re-raised after all thunks have finished. *)
  let run pool thunks =
    let first_exn = Atomic.make None in
    let guarded f () =
      try f ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set first_exn None (Some (e, bt)))
    in
    Mutex.lock pool.mutex;
    List.iter
      (fun f ->
        Queue.add (guarded f) pool.queue;
        pool.pending <- pool.pending + 1;
        Gpo_obs.Counter.incr c_tasks)
      thunks;
    Condition.broadcast pool.work;
    let rec drain () =
      match Queue.take_opt pool.queue with
      | Some task ->
          run_task pool task;
          drain ()
      | None ->
          while pool.pending > 0 do
            Condition.wait pool.idle pool.mutex
          done;
          Mutex.unlock pool.mutex
    in
    drain ();
    match Atomic.get first_exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()

  let map pool f xs =
    let items = Array.of_list xs in
    let out = Array.make (Array.length items) None in
    run pool
      (List.init (Array.length items) (fun i () -> out.(i) <- Some (f items.(i))));
    Array.to_list
      (Array.map
         (function
           | Some v -> v
           | None ->
               (* Only reachable when the thunk raised; [run] re-raised
                  already, so this is unreachable in practice. *)
               invalid_arg "Par.Pool.map: task did not complete")
         out)

  let iter pool f xs = run pool (List.map (fun x () -> f x) xs)

  let with_pool ?jobs f =
    let pool = create ?jobs () in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
end
