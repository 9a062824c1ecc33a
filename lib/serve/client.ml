type failure =
  | Refused of string
  | Timed_out of string
  | Closed
  | Protocol_error of string
  | Io of string

let describe_failure = function
  | Refused msg -> msg
  | Timed_out msg -> msg
  | Closed -> "server closed the connection"
  | Protocol_error msg -> msg
  | Io msg -> msg

(* What a retry can fix: nobody listening yet (daemon still booting or
   restarting) and deadline expiry (server busy, network stall).  A
   closed connection, a protocol error or a generic I/O failure is not
   known to be idempotent-safe territory — the request may have been
   acted on — except that every [request] is a pure question over
   content-addressed state, so the {e caller} may widen this; the
   default stays conservative. *)
let transient = function
  | Refused _ | Timed_out _ -> true
  | Closed | Protocol_error _ | Io _ -> false

let connect endpoint =
  let addr = Server.sockaddr endpoint in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr with e -> Unix.close fd; raise e);
  fd

let request fd req =
  match
    Protocol.send fd (Protocol.json_of_request req);
    Protocol.recv fd
  with
  | Protocol.Eof -> Error Closed
  | Protocol.Bad Protocol.Frame_timeout ->
      Error (Timed_out "timed out waiting for the server's reply")
  | Protocol.Bad e -> Error (Protocol_error (Protocol.describe_frame_error e))
  | Protocol.Payload (Error msg) -> Error (Protocol_error ("bad frame: " ^ msg))
  | Protocol.Payload (Ok json) -> (
      match Protocol.response_of_json json with
      | Ok Protocol.Timed_out ->
          (* The server classified *us* as the stalled peer. *)
          Error (Timed_out "server timed out reading the request")
      | Ok response -> Ok response
      | Error msg -> Error (Protocol_error msg))
  | exception Protocol.Frame Protocol.Frame_timeout ->
      Error (Timed_out "timed out sending the request")
  | exception Protocol.Frame e ->
      Error (Protocol_error (Protocol.describe_frame_error e))
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> Error Closed
  | exception Unix.Unix_error (err, _, _) -> Error (Io (Unix.error_message err))

let with_connection ?io_timeout_s endpoint f =
  let describe msg =
    Format.asprintf "connect %a: %s" Server.pp_endpoint endpoint msg
  in
  match connect endpoint with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Refused (describe (Unix.error_message err)))
  | exception Failure msg -> Error (Io (describe msg))
  | fd ->
      (match io_timeout_s with
      | Some s when s > 0. -> Protocol.set_timeouts fd s
      | _ -> ());
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f fd)

(* ------------------------------------------------------------------ *)
(* Retry policy: exponential backoff with full jitter                  *)

(* Sleep uniformly in [0, backoff_ms * 2^attempt] (capped at 10 s) —
   full jitter spreads a thundering herd of restarting clients instead
   of synchronising it.  Only typed-transient failures are retried:
   a refused connection (daemon restarting) and deadline expiry.  Every
   answer is final, a queue_full rejection included: the server refuses
   exactly the batches larger than its limit, so re-sending one cannot
   help.  Safe because every request is idempotent — a question about
   content-addressed state, not a mutation. *)
let retryable = function Ok _ -> false | Error f -> transient f

let with_retries ?(retries = 0) ?(backoff_ms = 50) ?rng attempt_fn =
  let rng = lazy (match rng with Some r -> r | None -> Random.State.make_self_init ()) in
  let rec go attempt =
    let outcome = attempt_fn () in
    if attempt >= retries || not (retryable outcome) then outcome
    else begin
      let ceiling_ms =
        min 10_000. (float_of_int backoff_ms *. (2. ** float_of_int attempt))
      in
      let sleep_ms = Random.State.float (Lazy.force rng) ceiling_ms in
      Gpo_obs.instant "serve.client.retry"
        [ ("attempt", Gpo_obs.I (attempt + 1)) ];
      Unix.sleepf (sleep_ms /. 1000.);
      go (attempt + 1)
    end
  in
  go 0

let submit ?retries ?backoff_ms ?rng ?io_timeout_s endpoint jobs =
  with_retries ?retries ?backoff_ms ?rng (fun () ->
      with_connection ?io_timeout_s endpoint (fun fd ->
          request fd (Protocol.Submit jobs)))

let ping ?io_timeout_s endpoint =
  with_connection ?io_timeout_s endpoint (fun fd -> request fd Protocol.Ping)

let stats ?io_timeout_s endpoint =
  with_connection ?io_timeout_s endpoint (fun fd -> request fd Protocol.Stats)

let shutdown ?io_timeout_s endpoint =
  with_connection ?io_timeout_s endpoint (fun fd ->
      request fd Protocol.Shutdown)

let wait_ready ?(attempts = 100) ?(delay_s = 0.05) endpoint =
  let rec go n =
    if n <= 0 then false
    else
      match ping endpoint with
      | Ok Protocol.Pong -> true
      | _ ->
          Unix.sleepf delay_s;
          go (n - 1)
  in
  go attempts
