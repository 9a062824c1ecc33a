(* The journal storage layer: crash-only record framing.  Every test
   here attacks the on-disk format directly — torn tails, corrupt
   middles, oversized length prefixes — and asserts that [read] always
   recovers exactly the longest verifiable prefix and never raises. *)

module Jn = Harness.Journal

let tmp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "julie-journal-test-%d-%d.bin" (Unix.getpid ()) !counter)

let with_tmp f =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_records path records =
  let w = Jn.open_append path in
  List.iter (Jn.append w) records;
  Jn.close w

let append_raw path bytes =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
  in
  output_string oc bytes;
  close_out oc

let file_size path = (Unix.stat path).Unix.st_size

let check_records msg expected (r : Jn.read_result) =
  Alcotest.(check (list string)) msg expected r.Jn.records

(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_tmp @@ fun path ->
  let records = [ "alpha"; ""; String.make 1000 'x'; "{\"k\":\"v\"}" ] in
  write_records path records;
  let r = Jn.read path in
  check_records "roundtrip preserves records in order" records r;
  Alcotest.(check bool) "clean file is not torn" false r.Jn.torn;
  Alcotest.(check int) "good prefix covers the whole file"
    (file_size path) r.Jn.good_bytes

let test_missing_and_empty () =
  let r = Jn.read (tmp_path ()) in
  check_records "missing file reads as empty" [] r;
  Alcotest.(check bool) "missing file is not torn" false r.Jn.torn;
  with_tmp @@ fun path ->
  write_records path [];
  let r = Jn.read path in
  check_records "empty file reads as empty" [] r;
  Alcotest.(check bool) "empty file is not torn" false r.Jn.torn

let test_torn_tail () =
  with_tmp @@ fun path ->
  write_records path [ "one"; "two" ];
  let clean = file_size path in
  (* A record whose payload never finished: header promises 100 bytes,
     only 5 arrive — exactly what kill -9 mid-append leaves. *)
  let torn = Bytes.create 17 in
  Bytes.set_int32_be torn 0 100l;
  Bytes.set_int64_be torn 4 0L;
  Bytes.blit_string "tornx" 0 torn 12 5;
  append_raw path (Bytes.to_string torn);
  let r = Jn.read path in
  check_records "records before the tear survive" [ "one"; "two" ] r;
  Alcotest.(check bool) "tear detected" true r.Jn.torn;
  Alcotest.(check int) "good prefix ends where the tear starts" clean
    r.Jn.good_bytes

let test_short_header_tail () =
  with_tmp @@ fun path ->
  write_records path [ "solo" ];
  append_raw path "\x00\x00";
  let r = Jn.read path in
  check_records "short header tail drops only the tail" [ "solo" ] r;
  Alcotest.(check bool) "short header tail is a tear" true r.Jn.torn

let test_corrupt_middle () =
  with_tmp @@ fun path ->
  write_records path [ "first"; "second"; "third" ];
  (* Flip one payload byte of "second" (offset: 12+5 bytes of "first",
     then 12 header bytes of "second").  Its checksum no longer
     verifies, so everything from "second" on is dropped — a corrupt
     middle may have desynchronised the stream. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (12 + 5 + 12) Unix.SEEK_SET : int);
  ignore (Unix.write_substring fd "X" 0 1 : int);
  Unix.close fd;
  let r = Jn.read path in
  check_records "corruption cuts the prefix at the bad record" [ "first" ] r;
  Alcotest.(check bool) "corruption is a tear" true r.Jn.torn;
  Alcotest.(check int) "good prefix ends before the bad record" (12 + 5)
    r.Jn.good_bytes

let test_oversized_prefix () =
  with_tmp @@ fun path ->
  write_records path [ "ok" ];
  (* A length prefix past max_record must not turn into an allocation:
     it ends the prefix immediately. *)
  let b = Bytes.create 12 in
  Bytes.set_int32_be b 0 (Int32.of_int (Jn.max_record + 1));
  Bytes.set_int64_be b 4 0L;
  append_raw path (Bytes.to_string b);
  let r = Jn.read path in
  check_records "oversized prefix ends the good prefix" [ "ok" ] r;
  Alcotest.(check bool) "oversized prefix is a tear" true r.Jn.torn

let test_create_replaces_atomically () =
  with_tmp @@ fun path ->
  write_records path [ "stale-1"; "stale-2" ];
  append_raw path "garbage-tail";
  let w = Jn.create path [ "fresh-a"; "fresh-b" ] in
  Jn.append w "fresh-c";
  Jn.close w;
  let r = Jn.read path in
  check_records "create replaces the file wholesale (garbage gone)"
    [ "fresh-a"; "fresh-b"; "fresh-c" ] r;
  Alcotest.(check bool) "compacted file is clean" false r.Jn.torn

let test_checksum_known_values () =
  (* FNV-1a 64 reference values — pins the on-disk format. *)
  Alcotest.(check int64) "fnv-1a of empty" 0xcbf29ce484222325L (Jn.checksum "");
  Alcotest.(check int64) "fnv-1a of 'a'" 0xaf63dc4c8601ec8cL (Jn.checksum "a");
  Alcotest.(check bool) "checksum separates close payloads" true
    (Jn.checksum "julie" <> Jn.checksum "juliE")

let test_bytes_tracks_size () =
  with_tmp @@ fun path ->
  let w = Jn.open_append path in
  Alcotest.(check int) "fresh file is empty" 0 (Jn.bytes w);
  Jn.append w "12345";
  Alcotest.(check int) "bytes = header + payload" 17 (Jn.bytes w);
  Jn.close w;
  let w = Jn.open_append path in
  Alcotest.(check int) "reopen picks up the existing size" 17 (Jn.bytes w);
  Jn.close w

let suite =
  [
    Alcotest.test_case "record roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "missing and empty files" `Quick test_missing_and_empty;
    Alcotest.test_case "torn tail is dropped" `Quick test_torn_tail;
    Alcotest.test_case "short header tail" `Quick test_short_header_tail;
    Alcotest.test_case "corrupt middle cuts the prefix" `Quick
      test_corrupt_middle;
    Alcotest.test_case "oversized length prefix" `Quick test_oversized_prefix;
    Alcotest.test_case "create replaces atomically" `Quick
      test_create_replaces_atomically;
    Alcotest.test_case "checksum reference values" `Quick
      test_checksum_known_values;
    Alcotest.test_case "writer tracks file size" `Quick test_bytes_tracks_size;
  ]
