(* Global telemetry registry + pluggable event sinks.

   Domain-safe: counters and gauges are atomic cells, distributions
   take a per-cell mutex, the registry tables and the installed sink
   are guarded by mutexes, and the span scope stack is domain-local.
   Events emitted while a [Scoped] buffer is active on the current
   domain are retained there instead of hitting the shared sink; the
   spawning code replays them at report time, so a JSONL trace stays
   one coherent stream even with engines racing in parallel. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then begin
          let s = Printf.sprintf "%.17g" f in
          (* Shorter representation when it round-trips. *)
          let short = Printf.sprintf "%g" f in
          Buffer.add_string buf (if float_of_string short = f then short else s)
        end
        else Buffer.add_string buf "null"
    | String s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf

  let to_channel oc t =
    output_string oc (to_string t);
    output_char oc '\n'

  (* Recursive-descent parser, sufficient for our own output. *)
  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> begin
            advance ();
            (match peek () with
            | Some '"' -> Buffer.add_char buf '"'
            | Some '\\' -> Buffer.add_char buf '\\'
            | Some '/' -> Buffer.add_char buf '/'
            | Some 'n' -> Buffer.add_char buf '\n'
            | Some 'r' -> Buffer.add_char buf '\r'
            | Some 't' -> Buffer.add_char buf '\t'
            | Some 'b' -> Buffer.add_char buf '\b'
            | Some 'f' -> Buffer.add_char buf '\012'
            | Some 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                in
                (* Only BMP code points below 0x80 are emitted verbatim;
                   others are kept as UTF-8 of the code point. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end;
                pos := !pos + 4
            | _ -> fail "bad escape");
            advance ();
            go ()
          end
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (elems [])
          end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

type value = I of int | F of float | S of string | B of bool

let json_of_value = function
  | I i -> Json.Int i
  | F f -> Json.Float f
  | S s -> Json.String s
  | B b -> Json.Bool b

type kind = Counter_v | Gauge_v | Dist_v | Span_v | Sample_v | Meta_v | Instant_v

let kind_label = function
  | Counter_v -> "counter"
  | Gauge_v -> "gauge"
  | Dist_v -> "dist"
  | Span_v -> "span"
  | Sample_v -> "sample"
  | Meta_v -> "meta"
  | Instant_v -> "instant"

let kind_of_label = function
  | "counter" -> Some Counter_v
  | "gauge" -> Some Gauge_v
  | "dist" -> Some Dist_v
  | "span" -> Some Span_v
  | "sample" -> Some Sample_v
  | "meta" -> Some Meta_v
  | "instant" -> Some Instant_v
  | _ -> None

type event = {
  time : float;
  kind : kind;
  dom : int;
  name : string;
  fields : (string * value) list;
}

let json_of_event e =
  Json.Obj
    [
      ("t", Json.Float e.time);
      ("ev", Json.String (kind_label e.kind));
      ("dom", Json.Int e.dom);
      ("name", Json.String e.name);
      ("fields", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) e.fields));
    ]

let event_of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let* t = field "t" in
  let* time =
    match t with
    | Json.Float f -> Ok f
    | Json.Int i -> Ok (float_of_int i)
    | _ -> Error "\"t\" is not a number"
  in
  let* ev = field "ev" in
  let* kind =
    match ev with
    | Json.String s -> (
        match kind_of_label s with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "unknown event kind %S" s))
    | _ -> Error "\"ev\" is not a string"
  in
  let* name_j = field "name" in
  let* name =
    match name_j with
    | Json.String s -> Ok s
    | _ -> Error "\"name\" is not a string"
  in
  (* [dom] is optional: traces from before domain tagging default to 0. *)
  let* dom =
    match Json.member "dom" j with
    | None -> Ok 0
    | Some (Json.Int d) -> Ok d
    | Some _ -> Error "\"dom\" is not an integer"
  in
  let* fields_j = field "fields" in
  let* fields =
    match fields_j with
    | Json.Obj kvs ->
        let rec convert acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest -> (
              match v with
              | Json.Int i -> convert ((k, I i) :: acc) rest
              | Json.Float f -> convert ((k, F f) :: acc) rest
              | Json.String s -> convert ((k, S s) :: acc) rest
              | Json.Bool b -> convert ((k, B b) :: acc) rest
              | _ -> Error (Printf.sprintf "field %S has a non-scalar value" k))
        in
        convert [] kvs
    | _ -> Error "\"fields\" is not an object"
  in
  Ok { time; kind; dom; name; fields }

type sink = { emit : event -> unit; flush : unit -> unit }

let null_sink = { emit = ignore; flush = ignore }

let tee_sink a b =
  {
    emit =
      (fun e ->
        a.emit e;
        b.emit e);
    flush =
      (fun () ->
        a.flush ();
        b.flush ());
  }

let jsonl_sink write =
  {
    emit = (fun e -> write (Json.to_string (json_of_event e)));
    flush = ignore;
  }

let jsonl_channel_sink oc =
  {
    emit = (fun e -> Json.to_channel oc (json_of_event e));
    flush = (fun () -> flush oc);
  }

let memory_sink () =
  let events = ref [] in
  ( { emit = (fun e -> events := e :: !events); flush = ignore },
    fun () -> List.rev !events )

(* ------------------------------------------------------------------ *)
(* Global sink state                                                   *)

(* [sink_mutex] serializes emissions from concurrent domains so JSONL
   lines never interleave; [registry_mutex] guards the metric tables
   and the other shared aggregation state (span totals, progress rate
   limiter).  Both are leaf locks: no code calls out while holding
   them. *)
let sink_mutex = Mutex.create ()
let registry_mutex = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let current_sink : sink option ref = ref None
let epoch = ref 0.0

(* Per-domain capture buffer: when set, events emitted from this domain
   are retained locally instead of being pushed to the shared sink. *)
let scoped_buffer : event list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let install sink =
  current_sink := Some sink;
  epoch := Unix.gettimeofday ()

let uninstall () =
  (match !current_sink with Some s -> s.flush () | None -> ());
  current_sink := None

let enabled () = !current_sink <> None

let emit kind name fields =
  match !current_sink with
  | None -> ()
  | Some sink -> (
      let e =
        {
          time = Unix.gettimeofday () -. !epoch;
          kind;
          dom = (Domain.self () :> int);
          name;
          fields;
        }
      in
      match Domain.DLS.get scoped_buffer with
      | Some buf -> buf := e :: !buf
      | None -> with_lock sink_mutex (fun () -> sink.emit e))

let meta name fields = emit Meta_v name fields
let instant name fields = emit Instant_v name fields

module Scoped = struct
  let capture f =
    let buf = ref [] in
    let previous = Domain.DLS.get scoped_buffer in
    Domain.DLS.set scoped_buffer (Some buf);
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set scoped_buffer previous)
      (fun () ->
        let v = f () in
        (v, List.rev !buf))

  let replay events =
    match !current_sink with
    | None -> ()
    | Some sink -> with_lock sink_mutex (fun () -> List.iter sink.emit events)
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

(* Counters and gauges are single atomic cells (engines hammer them
   from worker domains); distributions are log-bucketed histograms made
   entirely of atomic cells, so concurrent domains merge their
   observations lock-free into the shared buckets.  [touched] flags are
   plain atomic stores — the extra write is skipped once set to keep
   the cache line quiet on hot counters. *)
type counter_cell = { c_name : string; c_value : int Atomic.t; c_touched : bool Atomic.t }
type gauge_cell = { g_name : string; g_value : float Atomic.t; g_touched : bool Atomic.t }

(* HDR-style histogram geometry: each power-of-two octave is split into
   [hist_sub] linear sub-buckets, giving a worst-case relative
   quantile error of 1/(2*hist_sub) ≈ 6%.  Bucket 0 collects
   non-positive values and underflow (below 2^hist_min_exp ≈ 1ns when
   observing seconds); the last bucket collects overflow. *)
let hist_sub = 8
let hist_min_exp = -30
let hist_max_exp = 34
let hist_buckets = ((hist_max_exp - hist_min_exp) * hist_sub) + 2

let hist_index v =
  if not (v > 0.) then 0
  else begin
    let m, e = Float.frexp v in
    if e <= hist_min_exp then 0
    else if e > hist_max_exp then hist_buckets - 1
    else begin
      let sub = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int hist_sub) in
      let sub = if sub >= hist_sub then hist_sub - 1 else sub in
      1 + ((e - hist_min_exp - 1) * hist_sub) + sub
    end
  end

(* Representative value (sub-bucket midpoint) of a bucket index. *)
let hist_value i =
  if i <= 0 then 0.
  else if i >= hist_buckets - 1 then Float.ldexp 1.0 hist_max_exp
  else begin
    let i = i - 1 in
    let e = hist_min_exp + 1 + (i / hist_sub) and sub = i mod hist_sub in
    Float.ldexp
      (0.5 +. ((float_of_int sub +. 0.5) /. (2.0 *. float_of_int hist_sub)))
      e
  end

type dist_cell = {
  d_name : string;
  d_count : int Atomic.t;
  d_sum : float Atomic.t;
  d_min : float Atomic.t;
  d_max : float Atomic.t;
  d_buckets : int Atomic.t array;
}

type span_cell = { mutable sp_count : int; mutable sp_total : float }

let counters : (string, counter_cell) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge_cell) Hashtbl.t = Hashtbl.create 16
let dists : (string, dist_cell) Hashtbl.t = Hashtbl.create 16
let span_totals : (string, span_cell) Hashtbl.t = Hashtbl.create 16

module Counter = struct
  type t = counter_cell

  let make name =
    with_lock registry_mutex (fun () ->
        match Hashtbl.find_opt counters name with
        | Some c -> c
        | None ->
            let c =
              { c_name = name; c_value = Atomic.make 0; c_touched = Atomic.make false }
            in
            Hashtbl.add counters name c;
            c)

  let touch c = if not (Atomic.get c.c_touched) then Atomic.set c.c_touched true

  let incr c =
    Atomic.incr c.c_value;
    touch c

  let add c n =
    ignore (Atomic.fetch_and_add c.c_value n);
    touch c

  let value c = Atomic.get c.c_value
  let name c = c.c_name
end

module Gauge = struct
  type t = gauge_cell

  let make name =
    with_lock registry_mutex (fun () ->
        match Hashtbl.find_opt gauges name with
        | Some g -> g
        | None ->
            let g =
              { g_name = name; g_value = Atomic.make 0.0; g_touched = Atomic.make false }
            in
            Hashtbl.add gauges name g;
            g)

  let set g v =
    Atomic.set g.g_value v;
    if not (Atomic.get g.g_touched) then Atomic.set g.g_touched true

  let set_int g v = set g (float_of_int v)
  let value g = Atomic.get g.g_value
end

module Dist = struct
  type t = dist_cell

  let make name =
    with_lock registry_mutex (fun () ->
        match Hashtbl.find_opt dists name with
        | Some d -> d
        | None ->
            let d =
              {
                d_name = name;
                d_count = Atomic.make 0;
                d_sum = Atomic.make 0.0;
                d_min = Atomic.make infinity;
                d_max = Atomic.make neg_infinity;
                d_buckets = Array.init hist_buckets (fun _ -> Atomic.make 0);
              }
            in
            Hashtbl.add dists name d;
            d)

  (* CAS loops: [Atomic.compare_and_set] on boxed floats compares the
     box we just read, so a lost race simply retries with the fresh
     value — no lock anywhere on the observe path. *)
  let rec add_float cell v =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. v)) then add_float cell v

  let rec update_min cell v =
    let cur = Atomic.get cell in
    if v < cur && not (Atomic.compare_and_set cell cur v) then update_min cell v

  let rec update_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then update_max cell v

  let observe d v =
    Atomic.incr d.d_count;
    add_float d.d_sum v;
    update_min d.d_min v;
    update_max d.d_max v;
    Atomic.incr d.d_buckets.(hist_index v)

  let observe_int d v = observe d (float_of_int v)
  let count d = Atomic.get d.d_count

  let mean d =
    let n = Atomic.get d.d_count in
    if n = 0 then Float.nan else Atomic.get d.d_sum /. float_of_int n

  (* Quantile estimate from the buckets, clamped to the observed
     [min,max] so single-valued distributions answer exactly. *)
  let quantile_of ~count ~min:mn ~max:mx buckets q =
    if count = 0 then Float.nan
    else begin
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
      (* The extreme ranks have exact answers on the side: snap to them
         instead of a bucket midpoint. *)
      if rank <= 1 then mn
      else if rank >= count then mx
      else
      let rec scan i cum =
        if i >= Array.length buckets then mx
        else begin
          let cum = cum + buckets.(i) in
          if cum >= rank then Float.min mx (Float.max mn (hist_value i))
          else scan (i + 1) cum
        end
      in
      scan 0 0
    end

  let quantile d q =
    quantile_of ~count:(Atomic.get d.d_count) ~min:(Atomic.get d.d_min)
      ~max:(Atomic.get d.d_max)
      (Array.map Atomic.get d.d_buckets)
      q

  (* Exposed for the bucketing tests. *)
  let bucket_of_value = hist_index
  let bucket_mid = hist_value
  let bucket_count = hist_buckets
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* The scope stack is domain-local: spans nested on one domain must not
   see scopes opened on another.  Each entry carries the unique token of
   its [Span.enter], so an out-of-order [exit] is detected instead of
   silently popping somebody else's scope. *)
let span_stack : (string * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let span_path_over stack name =
  match stack with
  | [] -> name
  | stack -> String.concat "/" (List.rev (name :: List.map fst stack))

let c_span_misnested = Counter.make "obs.span.misnested"

module Span = struct
  (* A span token: [id = 0] means "entered while disabled", exit is a
     no-op (the shared [disabled] token keeps that path allocation
     free).  The scope stack is only touched when enabled, so a span
     entered while disabled nests transparently. *)
  type t = { sp_t0 : float; sp_id : int; sp_name : string }

  let disabled = { sp_t0 = Float.nan; sp_id = 0; sp_name = "" }
  let next_span_id = Atomic.make 1
  let misnested () = Counter.incr c_span_misnested

  let enter name : t =
    if !current_sink = None then disabled
    else begin
      let stack = Domain.DLS.get span_stack in
      let path = span_path_over !stack name in
      let id = Atomic.fetch_and_add next_span_id 1 in
      stack := (name, id) :: !stack;
      emit Span_v path [ ("phase", S "begin") ];
      { sp_t0 = Unix.gettimeofday (); sp_id = id; sp_name = name }
    end

  let record path dur =
    with_lock registry_mutex (fun () ->
        let cell =
          match Hashtbl.find_opt span_totals path with
          | Some c -> c
          | None ->
              let c = { sp_count = 0; sp_total = 0.0 } in
              Hashtbl.add span_totals path c;
              c
        in
        cell.sp_count <- cell.sp_count + 1;
        cell.sp_total <- cell.sp_total +. dur)

  let exit (t : t) =
    if t.sp_id <> 0 then begin
      let stack = Domain.DLS.get span_stack in
      let dur = Unix.gettimeofday () -. t.sp_t0 in
      let path, clean =
        match !stack with
        | (_, id) :: rest when id = t.sp_id ->
            (* The LIFO case: pop our own entry. *)
            stack := rest;
            (span_path_over rest t.sp_name, true)
        | entries when List.exists (fun (_, id) -> id = t.sp_id) entries ->
            (* Out of order: scopes entered after us were never exited.
               Drop them together with our entry — their own exits will
               find their tokens gone and leave the stack alone — so
               the scope stack recovers instead of corrupting every
               later path. *)
            misnested ();
            let rec drop = function
              | (_, id) :: rest when id = t.sp_id -> rest
              | _ :: rest -> drop rest
              | [] -> []
            in
            let rest = drop entries in
            stack := rest;
            (span_path_over rest t.sp_name, false)
        | _ ->
            (* Not on this domain's stack: a double exit, an exit after
               a parent already recovered past us, or an exit on a
               different domain.  Record under the bare name and leave
               the stack untouched. *)
            misnested ();
            (t.sp_name, false)
      in
      record path dur;
      emit Span_v path
        (("phase", S "end") :: ("dur_s", F dur)
        :: (if clean then [] else [ ("misnested", B true) ]))
    end

  let time name f =
    let t0 = enter name in
    match f () with
    | v ->
        exit t0;
        v
    | exception e ->
        exit t0;
        raise e
end

(* ------------------------------------------------------------------ *)
(* Contention-instrumented locks                                       *)

module Lock = struct
  (* A mutex with a lock-wait probe.  Disabled telemetry costs one
     branch on top of the plain [Mutex.lock].  Enabled, the uncontended
     path is a [try_lock] plus a zero observation into the wait
     distribution — no clock read; only a genuine wait pays two clock
     reads and shows up as a [lock.wait.<site>] span on this domain's
     timeline. *)
  type t = { l_mutex : Mutex.t; l_dist : Dist.t; l_span : string }

  let make site =
    {
      l_mutex = Mutex.create ();
      l_dist = Dist.make ("obs.lock.wait." ^ site);
      l_span = "lock.wait." ^ site;
    }

  let acquire l =
    if !current_sink = None then Mutex.lock l.l_mutex
    else if Mutex.try_lock l.l_mutex then Dist.observe l.l_dist 0.0
    else begin
      let sp = Span.enter l.l_span in
      let t0 = Unix.gettimeofday () in
      Mutex.lock l.l_mutex;
      let wait = Unix.gettimeofday () -. t0 in
      Span.exit sp;
      Dist.observe l.l_dist wait
    end

  let release l = Mutex.unlock l.l_mutex

  let with_lock l f =
    acquire l;
    Fun.protect ~finally:(fun () -> release l) f
end

(* ------------------------------------------------------------------ *)
(* Progress sampling / heartbeat                                       *)

module Progress = struct
  let heartbeat : (string -> unit) option ref = ref None
  let interval = 0.5

  (* Per-name rate limiter and states/sec derivation. *)
  let last : (string, float * int option) Hashtbl.t = Hashtbl.create 8

  let set_heartbeat h = heartbeat := h

  let render name fields =
    let buf = Buffer.create 64 in
    Buffer.add_string buf name;
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        Buffer.add_string buf
          (match v with
          | I i -> string_of_int i
          | F f -> Printf.sprintf "%.4g" f
          | S s -> s
          | B b -> string_of_bool b))
      fields;
    Buffer.contents buf

  (* The rate limiter table is shared: take the registry mutex for the
     whole sample.  Lock order is registry → sink (emit); nothing takes
     them the other way around. *)
  let sample name thunk =
    if !current_sink <> None || !heartbeat <> None then
      with_lock registry_mutex @@ fun () ->
      let now = Unix.gettimeofday () in
      let prev = Hashtbl.find_opt last name in
      let due =
        match prev with
        | None -> true
        | Some (t_prev, _) -> now -. t_prev >= interval
      in
      if due then begin
        let fields = thunk () in
        let states_now =
          match List.assoc_opt "states" fields with Some (I s) -> Some s | _ -> None
        in
        let fields =
          match (prev, states_now) with
          | Some (t_prev, Some s_prev), Some s_now when now > t_prev ->
              fields
              @ [ ("states_per_s", F (float_of_int (s_now - s_prev) /. (now -. t_prev))) ]
          | _ -> fields
        in
        Hashtbl.replace last name (now, states_now);
        emit Sample_v name fields;
        match !heartbeat with
        | Some print -> print (render name fields)
        | None -> ()
      end
end

(* ------------------------------------------------------------------ *)
(* Snapshot / reset / summary                                          *)

type dist_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type span_stats = { count : int; total_s : float }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  dists : (string * dist_stats) list;
  spans : (string * span_stats) list;
}

let by_name (a, _) (b, _) = String.compare a b

let dist_stats_of (d : dist_cell) =
  let count = Atomic.get d.d_count in
  if count = 0 then None
  else begin
    let min = Atomic.get d.d_min and max = Atomic.get d.d_max in
    let buckets = Array.map Atomic.get d.d_buckets in
    let q p = Dist.quantile_of ~count ~min ~max buckets p in
    Some
      {
        count;
        sum = Atomic.get d.d_sum;
        min;
        max;
        p50 = q 0.50;
        p90 = q 0.90;
        p99 = q 0.99;
      }
  end

let snapshot () =
  with_lock registry_mutex @@ fun () ->
  let counters =
    Hashtbl.fold
      (fun name c acc ->
        if Atomic.get c.c_touched then (name, Atomic.get c.c_value) :: acc else acc)
      counters []
    |> List.sort by_name
  in
  let gauges =
    Hashtbl.fold
      (fun name g acc ->
        if Atomic.get g.g_touched then (name, Atomic.get g.g_value) :: acc else acc)
      gauges []
    |> List.sort by_name
  in
  let dists =
    Hashtbl.fold
      (fun name d acc ->
        match dist_stats_of d with Some s -> (name, s) :: acc | None -> acc)
      dists []
    |> List.sort by_name
  in
  let spans =
    Hashtbl.fold
      (fun path c acc ->
        if c.sp_count > 0 then (path, { count = c.sp_count; total_s = c.sp_total }) :: acc
        else acc)
      span_totals []
    |> List.sort by_name
  in
  { counters; gauges; dists; spans }

let reset () =
  with_lock registry_mutex @@ fun () ->
  Hashtbl.iter
    (fun _ c ->
      Atomic.set c.c_value 0;
      Atomic.set c.c_touched false)
    counters;
  Hashtbl.iter
    (fun _ g ->
      Atomic.set g.g_value 0.0;
      Atomic.set g.g_touched false)
    gauges;
  Hashtbl.iter
    (fun _ d ->
      Atomic.set d.d_count 0;
      Atomic.set d.d_sum 0.0;
      Atomic.set d.d_min infinity;
      Atomic.set d.d_max neg_infinity;
      Array.iter (fun b -> Atomic.set b 0) d.d_buckets)
    dists;
  Hashtbl.reset span_totals;
  Hashtbl.reset Progress.last;
  Domain.DLS.get span_stack := []

let pp_summary ppf snap =
  let open Format in
  fprintf ppf "@[<v>-- stats ----------------------------------------------------@ ";
  if snap.counters <> [] then begin
    fprintf ppf "counters:@ ";
    List.iter (fun (n, v) -> fprintf ppf "  %-36s %12d@ " n v) snap.counters
  end;
  if snap.gauges <> [] then begin
    fprintf ppf "gauges:@ ";
    List.iter (fun (n, v) -> fprintf ppf "  %-36s %12.4g@ " n v) snap.gauges
  end;
  if snap.dists <> [] then begin
    fprintf ppf "distributions:%31s%9s%9s%9s%9s%9s%9s@ " "count" "min" "mean"
      "p50" "p90" "p99" "max";
    List.iter
      (fun (n, (d : dist_stats)) ->
        fprintf ppf "  %-36s %7d %8.4g %8.4g %8.4g %8.4g %8.4g %8.4g@ " n
          d.count d.min
          (d.sum /. float_of_int d.count)
          d.p50 d.p90 d.p99 d.max)
      snap.dists
  end;
  if snap.spans <> [] then begin
    fprintf ppf "spans:%39s%15s@ " "count" "total";
    List.iter
      (fun (n, s) -> fprintf ppf "  %-36s %7d %13.6fs@ " n s.count s.total_s)
      snap.spans
  end;
  (* Lock-wait distributions record seconds per acquire (zero for the
     uncontended fast path); their sums rank the process's lock hot
     spots. *)
  let lock_prefix = "obs.lock.wait." in
  let contended =
    List.filter_map
      (fun (n, (d : dist_stats)) ->
        if String.starts_with ~prefix:lock_prefix n && d.count > 0 then
          Some
            ( String.sub n (String.length lock_prefix)
                (String.length n - String.length lock_prefix),
              d )
        else None)
      snap.dists
    |> List.sort (fun (_, (a : dist_stats)) (_, b) -> Float.compare b.sum a.sum)
  in
  (match contended with
  | [] -> ()
  | _ :: _ ->
      let top = List.filteri (fun i _ -> i < 3) contended in
      fprintf ppf "top contended locks:%s@ "
        (String.concat ","
           (List.map
              (fun (site, (d : dist_stats)) ->
                Printf.sprintf " %s (%.6fs total, %d acquires)" site d.sum
                  d.count)
              top)));
  if snap.counters = [] && snap.gauges = [] && snap.dists = [] && snap.spans = []
  then fprintf ppf "(no metrics recorded)@ ";
  fprintf ppf "-------------------------------------------------------------@]"

let json_of_snapshot snap =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) snap.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) snap.gauges));
      ( "dists",
        Json.Obj
          (List.map
             (fun (n, (d : dist_stats)) ->
               ( n,
                 Json.Obj
                   [
                     ("count", Json.Int d.count);
                     ("sum", Json.Float d.sum);
                     ("min", Json.Float d.min);
                     ("max", Json.Float d.max);
                     ("p50", Json.Float d.p50);
                     ("p90", Json.Float d.p90);
                     ("p99", Json.Float d.p99);
                   ] ))
             snap.dists) );
      ( "spans",
        Json.Obj
          (List.map
             (fun (n, s) ->
               ( n,
                 Json.Obj
                   [ ("count", Json.Int s.count); ("total_s", Json.Float s.total_s) ] ))
             snap.spans) );
    ]

let emit_snapshot () =
  if enabled () then begin
    let snap = snapshot () in
    List.iter (fun (n, v) -> emit Counter_v n [ ("value", I v) ]) snap.counters;
    List.iter (fun (n, v) -> emit Gauge_v n [ ("value", F v) ]) snap.gauges;
    List.iter
      (fun (n, (d : dist_stats)) ->
        emit Dist_v n
          [
            ("count", I d.count);
            ("sum", F d.sum);
            ("min", F d.min);
            ("max", F d.max);
            ("mean", F (d.sum /. float_of_int d.count));
            ("p50", F d.p50);
            ("p90", F d.p90);
            ("p99", F d.p99);
          ])
      snap.dists;
    List.iter
      (fun (n, (s : span_stats)) ->
        emit Span_v n [ ("phase", S "total"); ("count", I s.count); ("total_s", F s.total_s) ])
      snap.spans
  end

let with_sink sink f =
  install sink;
  reset ();
  match f () with
  | v ->
      emit_snapshot ();
      uninstall ();
      v
  | exception e ->
      emit_snapshot ();
      uninstall ();
      raise e

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)

module Trace = struct
  (* Renders an event stream as Chrome trace-event JSON (the format
     Perfetto and chrome://tracing load): one thread track per domain
     id, duration events for spans, counter tracks for progress samples
     and final totals, instant events for guard trips / faults /
     cancellations.  Timestamps are microseconds since sink install.

     The renderer is defensive about span pairing: an "end" with no
     open "begin" on its domain is dropped, and begins left open at the
     end of the stream are closed at the last timestamp — so a trace
     assembled from a crashed or misnested run still loads. *)

  let pid = 1

  let base name ph ts dom =
    [
      ("name", Json.String name);
      ("ph", Json.String ph);
      ("ts", Json.Float ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int dom);
    ]

  let numeric_args fields =
    List.filter_map
      (fun (k, v) ->
        match v with
        | I _ | F _ -> Some (k, json_of_value v)
        | S _ | B _ -> None)
      fields

  let all_args fields = List.map (fun (k, v) -> (k, json_of_value v)) fields

  let json_of_events events =
    let out = ref [] in
    let push fields = out := Json.Obj fields :: !out in
    (* Per-domain stack of open span names, for B/E balancing. *)
    let open_spans : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
    let stack_of dom =
      match Hashtbl.find_opt open_spans dom with
      | Some s -> s
      | None ->
          let s = ref [] in
          Hashtbl.add open_spans dom s;
          s
    in
    let doms = Hashtbl.create 8 in
    let last_ts = ref 0.0 in
    List.iter
      (fun e ->
        let ts = e.time *. 1e6 in
        if ts > !last_ts then last_ts := ts;
        Hashtbl.replace doms e.dom ();
        match e.kind with
        | Span_v -> (
            match List.assoc_opt "phase" e.fields with
            | Some (S "begin") ->
                let st = stack_of e.dom in
                st := e.name :: !st;
                push (base e.name "B" ts e.dom @ [ ("cat", Json.String "span") ])
            | Some (S "end") -> (
                let st = stack_of e.dom in
                match !st with
                | _ :: rest ->
                    st := rest;
                    push (base e.name "E" ts e.dom)
                | [] -> (* stray end: drop rather than unbalance *) ())
            | _ -> (* final span totals carry no timeline position *) ())
        | Sample_v -> (
            match numeric_args e.fields with
            | [] -> ()
            | args ->
                push
                  (base e.name "C" ts e.dom @ [ ("args", Json.Obj args) ]))
        | Counter_v | Gauge_v ->
            let v =
              match List.assoc_opt "value" e.fields with
              | Some v -> json_of_value v
              | None -> Json.Null
            in
            push
              (base e.name "C" ts e.dom
              @ [ ("args", Json.Obj [ ("value", v) ]) ])
        | Dist_v -> (* histograms have no Chrome representation *) ()
        | Instant_v ->
            push
              (base e.name "i" ts e.dom
              @ [
                  ("s", Json.String "t");
                  ("cat", Json.String "instant");
                  ("args", Json.Obj (all_args e.fields));
                ])
        | Meta_v ->
            push
              (base e.name "i" ts e.dom
              @ [
                  ("s", Json.String "p");
                  ("cat", Json.String "meta");
                  ("args", Json.Obj (all_args e.fields));
                ]))
      events;
    (* Close whatever is still open so every B has an E. *)
    Hashtbl.iter
      (fun dom st ->
        List.iter (fun name -> push (base name "E" !last_ts dom)) !st)
      open_spans;
    (* Track naming metadata, one thread per domain. *)
    let meta =
      Json.Obj
        (("name", Json.String "process_name")
         :: ("ph", Json.String "M")
         :: ("pid", Json.Int pid)
         :: [ ("args", Json.Obj [ ("name", Json.String "julie") ]) ])
      :: (Hashtbl.fold (fun dom () acc -> dom :: acc) doms []
         |> List.sort Int.compare
         |> List.map (fun dom ->
                Json.Obj
                  [
                    ("name", Json.String "thread_name");
                    ("ph", Json.String "M");
                    ("pid", Json.Int pid);
                    ("tid", Json.Int dom);
                    ( "args",
                      Json.Obj
                        [ ("name", Json.String (Printf.sprintf "domain %d" dom)) ]
                    );
                  ]))
    in
    Json.Obj
      [
        ("traceEvents", Json.List (meta @ List.rev !out));
        ("displayTimeUnit", Json.String "ms");
      ]

  let write_file path events =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Json.to_channel oc (json_of_events events))
end

(* ------------------------------------------------------------------ *)
(* Per-capture summaries                                               *)

let summarize_events events =
  let spans : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 8 in
  let instants : (string, int ref) Hashtbl.t = Hashtbl.create 4 in
  let total = List.length events in
  List.iter
    (fun e ->
      match e.kind with
      | Span_v -> (
          match
            (List.assoc_opt "phase" e.fields, List.assoc_opt "dur_s" e.fields)
          with
          | Some (S "end"), Some (F dur) ->
              let count, sum =
                match Hashtbl.find_opt spans e.name with
                | Some cell -> cell
                | None ->
                    let cell = (ref 0, ref 0.0) in
                    Hashtbl.add spans e.name cell;
                    cell
              in
              incr count;
              sum := !sum +. dur
          | _ -> ())
      | Instant_v ->
          let c =
            match Hashtbl.find_opt instants e.name with
            | Some c -> c
            | None ->
                let c = ref 0 in
                Hashtbl.add instants e.name c;
                c
          in
          incr c
      | _ -> ())
    events;
  let sorted_fields tbl render =
    Hashtbl.fold (fun name cell acc -> (name, render cell) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Obj
    [
      ("events", Json.Int total);
      ( "spans",
        Json.Obj
          (sorted_fields spans (fun (count, sum) ->
               Json.Obj
                 [ ("count", Json.Int !count); ("total_s", Json.Float !sum) ]))
      );
      ( "instants",
        Json.Obj (sorted_fields instants (fun c -> Json.Int !c)) );
    ]
