module J = Gpo_obs.Json

type endpoint = Unix_path of string | Tcp of { host : string; port : int }

let pp_endpoint ppf = function
  | Unix_path path -> Format.fprintf ppf "unix:%s" path
  | Tcp { host; port } -> Format.fprintf ppf "tcp:%s:%d" host port

let c_connections = Gpo_obs.Counter.make "serve.connections"
let c_requests = Gpo_obs.Counter.make "serve.requests"
let c_conn_timeouts = Gpo_obs.Counter.make "serve.conn.timeouts"
let c_drain = Gpo_obs.Counter.make "serve.drain"

let sockaddr = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp { host; port } ->
      let addr =
        if host = "" || host = "localhost" then Unix.inet_addr_loopback
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> failwith (Printf.sprintf "unknown host %S" host))
      in
      Unix.ADDR_INET (addr, port)

(* Make room for a Unix socket at [path] without destroying anything: a
   socket whose daemon is gone (connect refused) is removed; a live
   socket or any other file is refused. *)
let claim_path path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_SOCK -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () ->
          Unix.close fd;
          failwith (path ^ " is in use by a running server")
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
          Unix.close fd;
          Unix.unlink path
      | exception e ->
          Unix.close fd;
          raise e)
  | _ -> failwith (path ^ " exists and is not a socket")

let listen_fd endpoint =
  try
    (match endpoint with Unix_path path -> claim_path path | Tcp _ -> ());
    let addr = sockaddr endpoint in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (try
       (match endpoint with
       | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
       | Unix_path _ -> ());
       Unix.bind fd addr;
       Unix.listen fd 16
     with e ->
       Unix.close fd;
       raise e);
    match (endpoint, Unix.getsockname fd) with
    | Tcp { host; _ }, Unix.ADDR_INET (_, port) -> (fd, Tcp { host; port })
    | _ -> (fd, endpoint)
  with Unix.Unix_error (err, _, _) ->
    failwith
      (Format.asprintf "cannot listen on %a: %s" pp_endpoint endpoint
         (Unix.error_message err))

let stats_json sched =
  J.Obj
    [
      ( "cache",
        J.Obj
          [
            ("size", J.Int (Harness.Result_cache.size ()));
            ("generation", J.Int (Harness.Result_cache.generation ()));
          ] );
      ( "queue",
        J.Obj
          [
            ("limit", J.Int (Scheduler.queue_limit sched));
            ("pool_jobs", J.Int (Scheduler.pool_jobs sched));
          ] );
      ("journal", Harness.Result_cache.journal_stats ());
      ("metrics", Gpo_obs.json_of_snapshot (Gpo_obs.snapshot ()));
    ]

let serve ?(jobs = 1) ?(queue_limit = 64) ?max_requests ?cache_dir
    ?(io_timeout_s = 30.) ?(on_ready = fun (_ : endpoint) -> ()) endpoint =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* Listen first, so that a bad endpoint fails before the journal is
     touched or anything else is set up.  A client that connects early
     waits in the backlog until the accept loop starts, after recovery,
     so its first request already hits the recovered cache. *)
  let lfd, bound = listen_fd endpoint in
  let release () =
    (try Unix.close lfd with Unix.Unix_error _ -> ());
    match bound with
    | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  in
  let sched =
    try Scheduler.create ~jobs ~queue_limit ()
    with e ->
      release ();
      raise e
  in
  (* Scoped per-request capture only records when a sink is installed;
     give the process a sink of last resort so request metrics work
     even without --metrics-out/--trace-out. *)
  let own_sink = not (Gpo_obs.enabled ()) in
  if own_sink then Gpo_obs.install Gpo_obs.null_sink;
  List.iter Gpo_obs.Counter.touch [ c_conn_timeouts; c_drain ];
  (match cache_dir with
  | None -> ()
  | Some dir -> (
      match Harness.Result_cache.attach dir with
      | Ok _ -> ()
      | Error msg ->
          if own_sink then Gpo_obs.uninstall ();
          Scheduler.shutdown sched;
          release ();
          failwith (Printf.sprintf "cache-dir %s: %s" dir msg)));
  let requests = ref 0 in
  let stop = ref false in
  (* Graceful drain: the first SIGTERM/SIGINT stops accepting (the
     blocking accept wakes with EINTR) and lets the in-flight batch
     finish under its own guards; a second signal cancels the in-flight
     engines too.  Either way the journal is flushed and the process
     leaves through the normal exit path — drain is exit 0. *)
  let draining = Atomic.make false in
  let on_signal (_ : int) =
    if Atomic.get draining then Scheduler.cancel_inflight sched
    else begin
      Atomic.set draining true;
      Gpo_obs.Counter.incr c_drain;
      Gpo_obs.instant "serve.drain" []
    end
  in
  let install sg =
    try Some (Sys.signal sg (Sys.Signal_handle on_signal))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore sg prev =
    match prev with
    | None -> ()
    | Some b -> ( try Sys.set_signal sg b with Invalid_argument _ -> ())
  in
  let prev_term = install Sys.sigterm in
  let prev_int = install Sys.sigint in
  let stopping () = !stop || Atomic.get draining in
  let handle fd =
    Gpo_obs.Counter.incr c_connections;
    if io_timeout_s > 0. then Protocol.set_timeouts fd io_timeout_s;
    let rec loop () =
      if stopping () then ()
      else
        match Protocol.recv fd with
        | Protocol.Eof -> ()
        | Protocol.Bad Protocol.Frame_timeout ->
            (* Slow-loris or stalled peer: one typed reply (itself under
               the send timeout), then the socket dies — the accept loop
               is free again. *)
            Gpo_obs.Counter.incr c_conn_timeouts;
            Protocol.send fd (Protocol.json_of_response Protocol.Timed_out)
        | Protocol.Bad e ->
            (* Framing is lost (truncated or oversized frame): answer
               once, then close — resynchronisation is impossible. *)
            Protocol.send fd
              (Protocol.json_of_response
                 (Protocol.Error (Protocol.describe_frame_error e)))
        | Protocol.Payload payload ->
            incr requests;
            Gpo_obs.Counter.incr c_requests;
            let response =
              match payload with
              | Error msg -> Protocol.Error ("bad json: " ^ msg)
              | Ok json -> (
                  match Protocol.request_of_json json with
                  | Error msg -> Protocol.Error msg
                  | Ok Protocol.Ping -> Protocol.Pong
                  | Ok Protocol.Stats -> Protocol.Stats_reply (stats_json sched)
                  | Ok Protocol.Shutdown ->
                      stop := true;
                      Protocol.Bye
                  | Ok (Protocol.Submit jobs) -> Scheduler.submit sched jobs)
            in
            Protocol.send fd (Protocol.json_of_response response);
            (match max_requests with
            | Some n when !requests >= n -> stop := true
            | _ -> ());
            loop ()
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* A torn frame or a peer that vanished mid-write kills this
           connection, not the server. *)
        try loop ()
        with Protocol.Frame _ | Unix.Unix_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      restore Sys.sigterm prev_term;
      restore Sys.sigint prev_int;
      release ();
      Scheduler.shutdown sched;
      (* The drain barrier: whatever the exit reason, every journaled
         store is fsynced before the process leaves. *)
      if cache_dir <> None then begin
        Harness.Result_cache.flush_journal ();
        Harness.Result_cache.detach ()
      end;
      if own_sink then Gpo_obs.uninstall ())
    (fun () ->
      on_ready bound;
      while not (stopping ()) do
        match Unix.accept lfd with
        | fd, _ -> handle fd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)
