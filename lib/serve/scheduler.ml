module J = Gpo_obs.Json
module Q = Harness.Query

type t = {
  pool : Par.Pool.t;
  pool_jobs : int;
  queue_limit : int;
  (* Serializes pool use: admission control decides *whether* a batch
     gets in; this lock only decides *when* it runs.  A rejected batch
     never reaches it, so a refusal answers immediately. *)
  run_lock : Mutex.t;
  (* The parent of every job's guard, tripped [Cancelled] by a second
     drain signal: every in-flight run, portfolio entrants included,
     stops at its next poll, so a hard drain returns within one poll
     interval instead of finishing the batch.  One-way — the scheduler
     is shutting down. *)
  drain : Guard.t;
}

let c_jobs = Gpo_obs.Counter.make "serve.jobs"
let c_batches = Gpo_obs.Counter.make "serve.batches"
let c_rejected = Gpo_obs.Counter.make "serve.rejected"
let c_deduped = Gpo_obs.Counter.make "serve.batch.deduped"
let c_failed = Gpo_obs.Counter.make "serve.jobs.failed"

let create ?(jobs = 1) ?(queue_limit = 64) () =
  let jobs = Par.Pool.resolve_jobs jobs in
  let queue_limit = max 1 queue_limit in
  List.iter Gpo_obs.Counter.touch [ c_jobs; c_batches; c_rejected; c_deduped ];
  {
    pool = Par.Pool.create ~jobs ();
    pool_jobs = jobs;
    queue_limit;
    run_lock = Mutex.create ();
    drain = Guard.create ();
  }

let pool_jobs t = t.pool_jobs
let queue_limit t = t.queue_limit
let cancel_inflight t = Guard.trip t.drain Guard.Cancelled
let shutdown t = Par.Pool.shutdown t.pool

(* ------------------------------------------------------------------ *)
(* Job preparation: everything that can be decided before a worker
   domain touches the job — the question itself (see [Harness.Query])
   and its content-addressed cache key.                                *)

type prepared = {
  job : Protocol.job;
  query : Q.t;
  sel : Q.selection;
  budgets : Q.budgets;
  key : Harness.Result_cache.key;
}

let prepare (job : Protocol.job) =
  let ( let* ) = Result.bind in
  let* sel = Q.selection_of_string job.engine in
  let* query =
    Q.prepare ~cover:job.cover
      (match job.net with
      | Protocol.Inline text -> Q.Inline text
      | Protocol.Model { id; size } -> Q.Model { id; size })
  in
  let budgets =
    {
      Q.max_states = job.max_states;
      jobs = job.jobs;
      timeout_s = job.timeout_s;
      mem_mb = job.mem_mb;
    }
  in
  let key = Q.key ~witness:job.witness ~reduce:job.reduce budgets sel query in
  Ok { job; query; sel; budgets; key }

(* ------------------------------------------------------------------ *)
(* Execution of one (unique) job on a worker domain                    *)

(* The [certified] field of an outcome, from its one classification.  A
   job that asked for no witness has nothing to certify. *)
let certification (p : prepared) o =
  if not p.job.witness then None
  else
    match Q.classify p.query o with
    | _, Q.Violated -> Some true
    | _, Q.Untrusted -> Some false
    | _ -> None

let ok_result (p : prepared) ~cached ~certified o =
  {
    Protocol.id = p.job.id;
    status = Protocol.Ok;
    cached;
    deduped = false;
    certified;
    report = Some (Harness.Report.json_of_outcome o);
    metrics = J.Null;
  }

let failed_result id msg =
  Gpo_obs.Counter.incr c_failed;
  {
    Protocol.id;
    status = Protocol.Failed msg;
    cached = false;
    deduped = false;
    certified = None;
    report = None;
    metrics = J.Null;
  }

(* One request: probe the fault site, try the cache, run + store on a
   miss.  Every answer is certified once: a hit whose witness no longer
   certifies is evicted and the question re-run, never served.  Every
   event the job emits is captured on the worker domain and folded into
   the per-request metrics; failures stay inside this job's result.
   Faulted runs store nothing — the cache only ever holds [Completed]
   outcomes. *)
let execute ~drain (p : prepared) =
  let run () =
    match
      Q.run ~guard:drain ~witness:p.job.witness ~reduce:p.job.reduce p.budgets
        p.sel p.query
    with
    | { Harness.Engine.stop = Guard.Cancelled; _ } ->
        failed_result p.job.id "cancelled"
    | outcome ->
        ignore
          (Harness.Result_cache.store
             ~net_text:(Petri.Parser.to_string p.query.target)
             p.key outcome
            : bool);
        ok_result p ~cached:false ~certified:(certification p outcome) outcome
  in
  let result, events =
    Gpo_obs.Scoped.capture (fun () ->
        Gpo_obs.Span.time "serve.request" (fun () ->
            try
              Guard.Fault.probe "serve.request";
              match Harness.Result_cache.find p.key with
              | None -> run ()
              | Some outcome -> (
                  match certification p outcome with
                  | Some false ->
                      Harness.Result_cache.evict p.key;
                      run ()
                  | certified -> ok_result p ~cached:true ~certified outcome)
            with
            | Out_of_memory ->
                Guard.relieve_memory ();
                failed_result p.job.id "out of memory"
            | Guard.Interrupted reason ->
                (* An injected cancellation outside any engine loop. *)
                failed_result p.job.id (Guard.string_of_stop reason)
            | Failure msg -> failed_result p.job.id msg))
  in
  ({ result with Protocol.metrics = Gpo_obs.summarize_events events }, events)

(* ------------------------------------------------------------------ *)
(* Batch submission                                                    *)

type slot =
  | Immediate of Protocol.job_result  (** Failed preparation. *)
  | Unique of prepared  (** First job with this cache key. *)
  | Dup of int * string
      (** Same question as the slot at this index; this job's id. *)

let submit t (batch : Protocol.job list) =
  let n = List.length batch in
  Gpo_obs.Counter.incr c_batches;
  (* Admission control: the whole batch gets in or none of it does. *)
  if n > t.queue_limit then begin
    Gpo_obs.Counter.incr c_rejected;
    Protocol.Rejected { reason = "queue_full"; limit = t.queue_limit; batch = n }
  end
  else begin
    Gpo_obs.Counter.add c_jobs n;
    Mutex.lock t.run_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.run_lock)
      (fun () ->
        (* Name anonymous jobs, prepare, and dedupe by cache key:
           only the first occurrence of a question is scheduled. *)
        let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
        let slots =
          List.mapi
            (fun i (job : Protocol.job) ->
              let job =
                if job.id = "" then
                  { job with id = Printf.sprintf "job-%d" i }
                else job
              in
              match prepare job with
              | Error msg -> Immediate (failed_result job.id msg)
              | Ok p -> (
                  let k = Harness.Result_cache.render p.key in
                  match Hashtbl.find_opt seen k with
                  | Some first ->
                      Gpo_obs.Counter.incr c_deduped;
                      Dup (first, job.id)
                  | None ->
                      Hashtbl.add seen k i;
                      Unique p))
            batch
        in
        let uniques =
          List.concat
            (List.mapi
               (fun i -> function Unique p -> [ (i, p) ] | _ -> [])
               slots)
        in
        let executed =
          Par.Pool.map t.pool
            (fun (_, p) -> execute ~drain:t.drain p)
            uniques
        in
        (* Replay the workers' captured events to the shared sink
           in batch order, so --metrics-out/--trace-out streams
           stay coherent. *)
        List.iter
          (fun (_, events) -> Gpo_obs.Scoped.replay events)
          executed;
        let answered : (int, Protocol.job_result) Hashtbl.t =
          Hashtbl.create 16
        in
        List.iter2
          (fun (i, _) (result, _) -> Hashtbl.replace answered i result)
          uniques executed;
        Protocol.Results
          (List.mapi
             (fun i -> function
               | Immediate r -> r
               | Unique _ -> Hashtbl.find answered i
               | Dup (first, id) ->
                   {
                     (Hashtbl.find answered first) with
                     Protocol.id;
                     deduped = true;
                     metrics = Gpo_obs.summarize_events [];
                   })
             slots))
  end
