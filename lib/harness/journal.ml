(* Append-only file of checksummed, length-prefixed records.

   One record on disk is [u32 BE payload length][u64 BE FNV-1a 64 of
   the payload][payload bytes].  The format is crash-only by
   construction: a writer that dies mid-append (kill -9, power loss)
   leaves a torn tail, and [read] recovers everything up to the first
   record that fails its length or checksum test — nothing after a torn
   or corrupted record is trusted, because the stream may have lost
   frame synchronisation there.  What a record *means* is the caller's
   business (the result cache stores a header record followed by cache
   entries). *)

let max_record = 1 lsl 26 (* mirror of Protocol.max_frame *)
let header_bytes = 12

(* FNV-1a, 64-bit.  Int64 arithmetic keeps the full width on 63-bit
   OCaml ints. *)
let checksum (s : string) =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  !h

let frame payload =
  let len = String.length payload in
  if len > max_record then
    invalid_arg (Printf.sprintf "Journal.frame: record too large (%d bytes)" len);
  let b = Bytes.create (header_bytes + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_int64_be b 4 (checksum payload);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* Reading: recover the longest good prefix                            *)

type read_result = {
  records : string list;  (** Good records, in append order. *)
  good_bytes : int;  (** File offset just past the last good record. *)
  torn : bool;  (** Trailing bytes after [good_bytes] were dropped. *)
}

let read path =
  if not (Sys.file_exists path) then
    { records = []; good_bytes = 0; torn = false }
  else begin
    let data =
      In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
    in
    let size = String.length data in
    let rec go off acc =
      if off = size then (List.rev acc, off, false)
      else if size - off < header_bytes then (List.rev acc, off, true)
      else
        let len = Int32.to_int (String.get_int32_be data off) in
        if len < 0 || len > max_record then (List.rev acc, off, true)
        else if size - off - header_bytes < len then (List.rev acc, off, true)
        else
          let sum = String.get_int64_be data (off + 4) in
          let payload = String.sub data (off + header_bytes) len in
          if not (Int64.equal sum (checksum payload)) then
            (List.rev acc, off, true)
          else go (off + header_bytes + len) (payload :: acc)
    in
    let records, good_bytes, torn = go 0 [] in
    { records; good_bytes; torn }
  end

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

type writer = { path : string; oc : out_channel; mutable bytes : int }

let bytes w = w.bytes

let open_append path =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644
      path
  in
  { path; oc; bytes = out_channel_length oc }

let append w payload =
  let framed = frame payload in
  output_string w.oc framed;
  (* Push every record to the OS as soon as it is complete: after a
     kill -9 the only possible damage is a torn *tail*, never a torn
     middle, and [read] truncates exactly there. *)
  flush w.oc;
  w.bytes <- w.bytes + String.length framed

let sync w =
  flush w.oc;
  try Unix.fsync (Unix.descr_of_out_channel w.oc) with Unix.Unix_error _ -> ()

let close w =
  sync w;
  close_out_noerr w.oc

(* Atomic whole-file replacement: write a sibling temp file, fsync it,
   rename over the target.  Readers (and a crash at any point) see
   either the old file or the new one, never a mix. *)
let create path records =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     List.iter (fun r -> output_string oc (frame r)) records;
     flush oc;
     (try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  open_append path
