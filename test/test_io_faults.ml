(* Robustness tests for the artifact pipeline: CRC-32, round-trips of the
   v2 and v3 (flat binary) formats, v1 compatibility, a corruption matrix
   asserting every fault yields a typed [Fault.error], the deterministic
   fault injector, the retry combinator, and the failure-isolating batch
   runner. *)

module Checksum = Trg_util.Checksum
module Fault = Trg_util.Fault
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace
module Io = Trg_trace.Io
module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Serial = Trg_program.Serial
module Report = Trg_eval.Report
module Runner = Trg_eval.Runner

let ev kind proc offset len = Event.make ~kind ~proc ~offset ~len

let sample_events =
  [
    ev Event.Enter 0 0 32;
    ev Event.Enter 1 0 16;
    ev Event.Run 1 16 16;
    ev Event.Resume 0 32 32;
    ev Event.Enter 2 0 64;
  ]

let sample_trace = Trace.of_list sample_events

let sample_program = Program.of_sizes [| 32; 64; 48 |]

let sample_layout = Layout.default sample_program

let with_temp f =
  let path = Filename.temp_file "trgplace_faults" ".artifact" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- CRC-32 ---------------------------------------------------------- *)

let test_crc_vector () =
  Alcotest.(check string) "check vector" "cbf43926" (Checksum.to_hex (Checksum.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Checksum.to_hex Checksum.empty)

let test_crc_chaining () =
  let a = "trgplace" and b = " artifact pipeline" in
  Alcotest.(check int) "chained = whole"
    (Checksum.string (a ^ b))
    (Checksum.string ~crc:(Checksum.string a) b);
  Alcotest.(check int) "substring"
    (Checksum.string "345")
    (Checksum.substring "123456789" ~pos:2 ~len:3)

let test_crc_hex_roundtrip () =
  let crc = Checksum.string "some artifact" in
  Alcotest.(check (option int)) "of_hex . to_hex" (Some crc) (Checksum.of_hex (Checksum.to_hex crc));
  Alcotest.(check (option int)) "bad width" None (Checksum.of_hex "abc");
  Alcotest.(check (option int)) "not hex" None (Checksum.of_hex "zzzzzzzz")

(* The byte-at-a-time CRC-32 that slicing-by-8 replaced, kept as the
   reference: one table lookup per byte. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done;
      !c)

let reference_crc ?(crc = 0) s ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := (!c lsr 8) lxor crc_table.((!c lxor Char.code s.[i]) land 0xFF)
  done;
  !c lxor 0xFFFFFFFF

let gen_crc = QCheck.Gen.int_bound 0xFFFFFFFF

(* Every slice length 0-64 at every start 0-7: each tail length and each
   alignment of the 8-byte steps. *)
let prop_crc_short_slices =
  QCheck.Test.make ~name:"crc32 slicing-by-8 = byte loop, every short slice"
    ~count:50
    (QCheck.make
       QCheck.Gen.(pair (string_size (return 72)) gen_crc)
       ~print:QCheck.Print.(pair string int))
    (fun (s, crc) ->
      List.for_all
        (fun pos ->
          List.for_all
            (fun len ->
              Checksum.substring ~crc s ~pos ~len = reference_crc ~crc s ~pos ~len)
            (List.init 65 Fun.id))
        (List.init 8 Fun.id))

(* Long strings, and a digest chained through a random split point. *)
let prop_crc_long_and_chained =
  QCheck.Test.make ~name:"crc32 slicing-by-8 = byte loop, long and chained"
    ~count:200
    (QCheck.make
       QCheck.Gen.(triple (string_size (int_range 0 5000)) gen_crc (int_bound 5000))
       ~print:(fun (s, crc, k) ->
         Printf.sprintf "length %d, crc %d, split %d" (String.length s) crc k))
    (fun (s, crc, k) ->
      let n = String.length s in
      let k = min k n in
      let whole = reference_crc ~crc s ~pos:0 ~len:n in
      Checksum.string ~crc s = whole
      && Checksum.substring
           ~crc:(Checksum.substring ~crc s ~pos:0 ~len:k)
           s ~pos:k ~len:(n - k)
         = whole)

(* --- round-trips ----------------------------------------------------- *)

let test_text_trace_roundtrip () =
  with_temp (fun path ->
      Io.save path sample_trace;
      (match Io.load_result path with
      | Ok t -> Alcotest.(check bool) "events" true (Trace.to_list t = sample_events)
      | Error e -> Alcotest.failf "unexpected error: %s" (Fault.to_string e));
      Alcotest.(check bool) "no temp residue" false (Sys.file_exists (path ^ ".tmp")))

let test_binary_trace_roundtrip () =
  with_temp (fun path ->
      Io.save_binary path sample_trace;
      match Io.load_result path with
      | Ok t -> Alcotest.(check bool) "events" true (Trace.to_list t = sample_events)
      | Error e -> Alcotest.failf "unexpected error: %s" (Fault.to_string e))

let test_program_roundtrip () =
  with_temp (fun path ->
      Serial.save_program path sample_program;
      match Serial.load_program_result path with
      | Ok p ->
        Alcotest.(check int) "procs" (Program.n_procs sample_program) (Program.n_procs p)
      | Error e -> Alcotest.failf "unexpected error: %s" (Fault.to_string e))

let test_layout_roundtrip () =
  with_temp (fun path ->
      Serial.save_layout path sample_layout;
      match Serial.load_layout_result sample_program path with
      | Ok l ->
        Alcotest.(check bool) "addresses" true
          (Layout.addresses l = Layout.addresses sample_layout)
      | Error e -> Alcotest.failf "unexpected error: %s" (Fault.to_string e))

let test_missing_file () =
  match Io.load_result "/nonexistent/trgplace.trace" with
  | Error (Fault.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e)
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"

(* --- v1 compatibility ------------------------------------------------ *)

(* Derive a v1 file (no trailer) from the v2 bytes: drop the trailer and
   rewrite the header version — exactly the format the seed code wrote. *)
let v1_of_v2_text content =
  let lines = String.split_on_char '\n' content in
  let lines = List.filter (fun l -> l <> "" && not (String.length l >= 4 && String.sub l 0 4 = "#crc")) lines in
  match lines with
  | header :: records ->
    let header =
      match String.index_opt header ' ' with
      | Some i ->
        let magic = String.sub header 0 i in
        let rest = String.sub header (i + 1) (String.length header - i - 1) in
        let j = String.index rest ' ' in
        magic ^ " 1" ^ String.sub rest j (String.length rest - j)
      | None -> header
    in
    String.concat "" (List.map (fun l -> l ^ "\n") (header :: records))
  | [] -> content

let test_v1_text_trace_loads () =
  with_temp (fun path ->
      Io.save path sample_trace;
      write_file path (v1_of_v2_text (read_file path));
      match Io.load_result path with
      | Ok t -> Alcotest.(check bool) "v1 text trace" true (Trace.to_list t = sample_events)
      | Error e -> Alcotest.failf "v1 rejected: %s" (Fault.to_string e))

let test_v1_binary_trace_loads () =
  with_temp (fun path ->
      Io.save_binary path sample_trace;
      let content = read_file path in
      (* Drop the 4 trailer bytes, rewrite the header version. *)
      let content = String.sub content 0 (String.length content - 4) in
      let header_end = String.index content '\n' in
      let header = String.sub content 0 header_end in
      let header =
        Scanf.sscanf header "%s %d %d" (fun m _ n -> Printf.sprintf "%s %d %d" m 1 n)
      in
      write_file path
        (header ^ String.sub content header_end (String.length content - header_end));
      match Io.load_result path with
      | Ok t -> Alcotest.(check bool) "v1 binary trace" true (Trace.to_list t = sample_events)
      | Error e -> Alcotest.failf "v1 rejected: %s" (Fault.to_string e))

let test_v1_program_and_layout_load () =
  with_temp (fun path ->
      Serial.save_program path sample_program;
      write_file path (v1_of_v2_text (read_file path));
      (match Serial.load_program_result path with
      | Ok p -> Alcotest.(check int) "v1 program" 3 (Program.n_procs p)
      | Error e -> Alcotest.failf "v1 program rejected: %s" (Fault.to_string e));
      Serial.save_layout path sample_layout;
      write_file path (v1_of_v2_text (read_file path));
      match Serial.load_layout_result sample_program path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "v1 layout rejected: %s" (Fault.to_string e))

(* --- corruption matrix ----------------------------------------------- *)

(* Each artifact kind: name, writer, typed loader. *)
let kinds : (string * (string -> unit) * (string -> (unit, Fault.error) result)) list =
  [
    ( "text-trace",
      (fun p -> Io.save p sample_trace),
      fun p -> Result.map ignore (Io.load_result p) );
    ( "binary-trace",
      (fun p -> Io.save_binary p sample_trace),
      fun p -> Result.map ignore (Io.load_result p) );
    ( "program",
      (fun p -> Serial.save_program p sample_program),
      fun p -> Result.map ignore (Serial.load_program_result p) );
    ( "layout",
      (fun p -> Serial.save_layout p sample_layout),
      fun p -> Result.map ignore (Serial.load_layout_result sample_program p) );
    ( "flat-trace",
      (fun p -> Io.save_flat p (Trace.Flat.of_trace sample_trace)),
      fun p -> Result.map ignore (Io.load_flat_result p) );
  ]

let replace_first_opt ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None else if String.sub s i m = sub then Some i else find (i + 1)
  in
  Option.map
    (fun i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m))
    (find 0)

let replace_first ~sub ~by s =
  match replace_first_opt ~sub ~by s with
  | Some s -> s
  | None -> Alcotest.failf "corruption pattern %S not found" sub

let lines_of s = String.split_on_char '\n' s

let unlines ls = String.concat "\n" ls

(* Corruption modes.  [expect] names the error constructors the mode may
   legitimately produce — which one fires can depend on where in the
   record structure the damage lands, but it must always be one of
   these. *)
let describe = function
  | Fault.Bad_magic _ -> "Bad_magic"
  | Fault.Unsupported_version _ -> "Unsupported_version"
  | Fault.Checksum_mismatch _ -> "Checksum_mismatch"
  | Fault.Truncated _ -> "Truncated"
  | Fault.Bad_record _ -> "Bad_record"
  | Fault.Io_error _ -> "Io_error"

(* The text trailer is exactly 14 bytes ("#crc " + 8 hex + newline), so
   cutting 14 removes precisely the trailer of every text artifact (and
   tears mid-record in the binary one): always [Truncated]. *)
let truncate_mode content = String.sub content 0 (String.length content - 14)

(* A deeper cut also tears the last record, which may surface as a parse
   error instead. *)
let torn_tail_mode content = String.sub content 0 (String.length content - 20)

let drop_trailer content = String.sub content 0 (String.length content - 6)

let bad_magic_mode content = replace_first ~sub:"trgplace-" ~by:"xxxxxxxx-" content

(* v2 artifacts carry " 2 " in the header, v3 (flat) carries " 3 ". *)
let bad_version_mode content =
  match replace_first_opt ~sub:" 2 " ~by:" 9 " content with
  | Some c -> c
  | None -> replace_first ~sub:" 3 " ~by:" 9 " content

let oversized_count_mode content =
  match lines_of content with
  | header :: rest ->
    let header =
      Scanf.sscanf header "%s %d %d" (fun m v n -> Printf.sprintf "%s %d %d" m v (n + 5))
    in
    unlines (header :: rest)
  | [] -> content

let bad_record_mode content =
  match lines_of content with
  | header :: _ :: rest -> unlines (header :: "zz zz zz" :: rest)
  | _ -> content

let binary_zero_record content =
  let header_end = String.index content '\n' + 1 in
  let b = Bytes.of_string content in
  Bytes.fill b header_end 8 '\000';
  Bytes.to_string b

let corruption_matrix =
  [
    ("truncation", truncate_mode, [ "Truncated" ]);
    ("torn tail", torn_tail_mode, [ "Truncated"; "Bad_record" ]);
    ("missing trailer", drop_trailer, [ "Truncated"; "Bad_record" ]);
    ("bad magic", bad_magic_mode, [ "Bad_magic" ]);
    ("bad version", bad_version_mode, [ "Unsupported_version" ]);
    ("oversized count", oversized_count_mode, [ "Truncated"; "Bad_record" ]);
    ("garbled record", bad_record_mode, [ "Bad_record"; "Checksum_mismatch"; "Truncated" ]);
  ]

let check_corruption ~kind ~mode load path mutate expect =
  let content = mutate (read_file path) in
  write_file path content;
  let outcome = try `Result (load path) with e -> `Raised e in
  match outcome with
  | `Result (Error e) ->
    let name = describe e in
    if not (List.mem name expect) then
      Alcotest.failf "%s/%s: got %s (%s), expected one of [%s]" kind mode name
        (Fault.to_string e) (String.concat "; " expect)
  | `Result (Ok ()) -> Alcotest.failf "%s/%s: corruption not detected" kind mode
  | `Raised e ->
    Alcotest.failf "%s/%s: untyped exception escaped the loader: %s" kind mode
      (Printexc.to_string e)

let test_corruption_matrix () =
  List.iter
    (fun (kind, save, load) ->
      List.iter
        (fun (mode, mutate, expect) ->
          with_temp (fun path ->
              save path;
              check_corruption ~kind ~mode load path mutate expect))
        corruption_matrix)
    kinds

let test_bit_flips_detected () =
  (* Text artifacts: a single in-record digit change that still parses is
     exactly what the CRC trailer exists to catch. *)
  List.iter
    (fun (kind, save, load, sub, by) ->
      with_temp (fun path ->
          save path;
          check_corruption ~kind ~mode:"bit flip" load path
            (replace_first ~sub ~by)
            [ "Checksum_mismatch" ]))
    [
      ( "text-trace",
        (fun p -> Io.save p sample_trace),
        (fun p -> Result.map ignore (Io.load_result p)),
        "E 0 0 32",
        "E 0 1 32" );
      ( "program",
        (fun p -> Serial.save_program p sample_program),
        (fun p -> Result.map ignore (Serial.load_program_result p)),
        "0 32 p0",
        "0 33 p0" );
      ( "layout",
        (fun p -> Serial.save_layout p sample_layout),
        (fun p -> Result.map ignore (Serial.load_layout_result sample_program p)),
        "2 96",
        "2 97" );
    ];
  (* Binary trace: flipped bits either break the CRC or a field range. *)
  with_temp (fun path ->
      Io.save_binary path sample_trace;
      let flip content =
        let i = String.index content '\n' + 3 in
        let b = Bytes.of_string content in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
        Bytes.to_string b
      in
      check_corruption ~kind:"binary-trace" ~mode:"bit flip"
        (fun p -> Result.map ignore (Io.load_result p))
        path flip
        [ "Checksum_mismatch"; "Bad_record" ])

let test_binary_bad_record () =
  with_temp (fun path ->
      Io.save_binary path sample_trace;
      check_corruption ~kind:"binary-trace" ~mode:"zeroed record"
        (fun p -> Result.map ignore (Io.load_result p))
        path binary_zero_record
        [ "Bad_record"; "Checksum_mismatch" ])

(* v3 (flat binary) specifics: the header line is fixed-width (32 bytes,
   so the payload starts 8-aligned), the format loads through [Io.load]
   and its [Io.load_flat] alias, and a zeroed payload word (len = 0) is
   a typed [Bad_record] before the trailer is even reached. *)
let test_v3_header_fixed_width () =
  with_temp (fun path ->
      Io.save_flat path (Trace.Flat.of_trace sample_trace);
      let content = read_file path in
      Alcotest.(check int) "32-byte header line" 32 (String.index content '\n' + 1);
      (match Io.load_result path with
      | Ok t ->
        Alcotest.(check bool) "v3 via Io.load" true (Trace.to_list t = sample_events)
      | Error e -> Alcotest.failf "v3 rejected by Io.load: %s" (Fault.to_string e));
      match Io.load_flat_result path with
      | Ok f ->
        Alcotest.(check bool) "v3 via Io.load_flat" true
          (Trace.to_list (Trace.Flat.to_trace f) = sample_events)
      | Error e -> Alcotest.failf "v3 rejected by Io.load_flat: %s" (Fault.to_string e))

let test_flat_bad_record () =
  with_temp (fun path ->
      Io.save_flat path (Trace.Flat.of_trace sample_trace);
      check_corruption ~kind:"flat-trace" ~mode:"zeroed record"
        (fun p -> Result.map ignore (Io.load_flat_result p))
        path binary_zero_record
        [ "Bad_record"; "Checksum_mismatch" ])

(* The v3 decoder reads the body in 64 KB blocks.  A trace bigger than
   one block proves the multi-block CRC fold and decode, and every
   truncation point of the body — mid-word, between words, trailer torn,
   trailer gone — must surface as a typed [Truncated], never a crash or
   a wrong trace. *)
let big_flat_trace =
  Trace.of_list
    (List.init 12_000 (fun i ->
         ev
           (match i mod 3 with 0 -> Event.Enter | 1 -> Event.Run | _ -> Event.Resume)
           (i mod 7)
           (8 * (i mod 50))
           (8 + (i mod 24))))

let test_flat_chunked_roundtrip () =
  with_temp (fun path ->
      Io.save_flat path (Trace.Flat.of_trace big_flat_trace);
      match Io.load_flat_result path with
      | Ok f ->
        Alcotest.(check int) "length" (Trace.length big_flat_trace)
          (Trace.Flat.length f);
        Alcotest.(check bool) "events identical" true
          (Trace.to_list (Trace.Flat.to_trace f) = Trace.to_list big_flat_trace)
      | Error e -> Alcotest.failf "v3 load failed: %s" (Fault.to_string e))

let test_flat_chunked_truncation_matrix () =
  (* Cut points, in bytes removed from the end of the full v3 file. *)
  let cuts =
    [
      ("torn trailer", 2, [ "Truncated" ]);
      ("missing trailer", 4, [ "Truncated" ]);
      ("torn last word", 7, [ "Truncated" ]);
      ("missing body tail", 12, [ "Truncated" ]);
      ("half the body gone", 6_000 * 8, [ "Truncated" ]);
      ("header only", (12_000 * 8) + 4, [ "Truncated" ]);
    ]
  in
  List.iter
    (fun (mode, cut, expect) ->
      with_temp (fun path ->
          Io.save_flat path (Trace.Flat.of_trace big_flat_trace);
          check_corruption ~kind:"flat-trace" ~mode
            (fun p -> Result.map ignore (Io.load_flat_result p))
            path
            (fun content -> String.sub content 0 (String.length content - cut))
            expect))
    cuts;
  (* Empty file: the header itself is missing. *)
  with_temp (fun path ->
      write_file path "";
      match Io.load_flat_result path with
      | Error (Fault.Truncated _) -> ()
      | Error e -> Alcotest.failf "empty file: wrong error %s" (Fault.to_string e)
      | Ok _ -> Alcotest.fail "empty file accepted")

let test_flat_chunked_bit_flip () =
  with_temp (fun path ->
      Io.save_flat path (Trace.Flat.of_trace big_flat_trace);
      let flip content =
        (* Damage a byte deep in the body's second block. *)
        let i = String.index content '\n' + 1 + 70_000 in
        let b = Bytes.of_string content in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
        Bytes.to_string b
      in
      check_corruption ~kind:"flat-trace" ~mode:"bit flip"
        (fun p -> Result.map ignore (Io.load_flat_result p))
        path flip
        [ "Checksum_mismatch"; "Bad_record" ])

(* Faults surface in the order a word-at-a-time reader meets them, even
   when the bad word and the cut share a block: a word with the unknown
   kind 3 ahead of the cut is a [Bad_record], one past it is never read,
   so the cut is a [Truncated]. *)
let test_flat_fault_order () =
  let damage ~word ~keep_words content =
    let body = String.index content '\n' + 1 in
    let b = Bytes.of_string (String.sub content 0 (body + (8 * keep_words) + 3)) in
    if word < keep_words then begin
      let top = body + (8 * word) + 7 in
      Bytes.set b top (Char.chr (Char.code (Bytes.get b top) lor 0x60))
    end;
    Bytes.to_string b
  in
  List.iter
    (fun (mode, word, keep_words, expect) ->
      with_temp (fun path ->
          Io.save_flat path (Trace.Flat.of_trace big_flat_trace);
          check_corruption ~kind:"flat-trace" ~mode
            (fun p -> Result.map ignore (Io.load_result p))
            path (damage ~word ~keep_words) expect))
    [
      ("bad word in the torn block", 9_000, 9_500, [ "Bad_record" ]);
      ("bad word in a whole block", 100, 9_500, [ "Bad_record" ]);
      ("cut before the bad word", 9_600, 9_500, [ "Truncated" ]);
    ]

(* A binary header may claim any count up to [max_int], and the decoder
   must never turn it into a byte count: 8n wraps to 0 at n = 2^60 (a
   zero-length read that looped forever) and goes negative at 2^59.
   Under every binary version a short body is [Truncated], read from a
   file and from a pipe, whose size the reader cannot ask. *)
let test_hostile_word_count () =
  let saved = with_temp (fun path -> Io.save_flat path sample_trace; read_file path) in
  let body = String.sub saved (String.index saved '\n') (String.length saved - String.index saved '\n') in
  let via_pipe content =
    let rd, wr = Unix.pipe () in
    let oc = Unix.out_channel_of_descr wr in
    output_string oc content;
    close_out oc;
    let ic = Unix.in_channel_of_descr rd in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        match Io.read_channel ic with
        | _ -> None
        | exception Failure msg -> Some msg)
  in
  List.iter
    (fun version ->
      List.iter
        (fun n ->
          let content = Printf.sprintf "trgplace-traceb %d %d%s" version n body in
          let mode = Printf.sprintf "v%d count %d" version n in
          with_temp (fun path ->
              write_file path content;
              match Io.load_result path with
              | Error (Fault.Truncated _ as e) ->
                Alcotest.(check (option string)) (mode ^ " via pipe")
                  (Some (Fault.to_string e)) (via_pipe content)
              | Error e -> Alcotest.failf "%s: wrong error %s" mode (Fault.to_string e)
              | Ok _ -> Alcotest.failf "%s: short body accepted" mode))
        [ 1 lsl 59; 1 lsl 60; max_int ])
    [ 1; 2; 3 ]

(* v2 and v3 reject the same words: one whose length or kind
   [Event.make] refuses is a [Bad_record] even under a correct CRC, with
   the message the word-at-a-time readers gave. *)
let test_bad_word_every_version () =
  let rewrite_first_word f content =
    let b = Bytes.of_string content in
    let at = String.index content '\n' + 1 in
    Bytes.set_int64_le b at (Int64.of_int (f (Int64.to_int (Bytes.get_int64_le b at))));
    let body = Bytes.length b - 4 in
    Bytes.set_int32_le b body (Int32.of_int (Checksum.bytes b ~pos:0 ~len:body));
    Bytes.to_string b
  in
  let with_len len w = (w land lnot 0x7FFFFF) lor len in
  List.iter
    (fun (format, save) ->
      List.iter
        (fun (mode, f, reason) ->
          with_temp (fun path ->
              save path sample_trace;
              write_file path (rewrite_first_word f (read_file path));
              match Io.load_result path with
              | Error (Fault.Bad_record msg) ->
                Alcotest.(check string) (format ^ " " ^ mode)
                  (Printf.sprintf "bad %s event: %s" format reason)
                  msg
              | Error e -> Alcotest.failf "%s %s: wrong error %s" format mode (Fault.to_string e)
              | Ok _ -> Alcotest.failf "%s %s: bad word accepted" format mode))
        [
          ("len 0", with_len 0, "Event.make: len out of range");
          ("len 2^22 + 1", with_len ((1 lsl 22) + 1), "Event.make: len out of range");
          ("kind 3", (fun w -> w lor (3 lsl 61)), "Event.kind_of_int: 3");
        ])
    [ ("binary", Io.save_binary); ("flat", Io.save_flat) ]

(* --- the block decoder against a word-at-a-time reference ------------- *)

(* The word-at-a-time decoder the block decoder replaced, kept as the
   reference: parse the header, read the [n] words one by one — each
   checked the way [Event.make] checks the fields of [Event.unpack w],
   independently of [Event.packed_ok] — then the 4-byte CRC trailer of
   v2 and v3. *)
let reference_decode content =
  let nl = String.index content '\n' in
  let version, n =
    Fault.parse_header ~magic:"trgplace-traceb" ~max_version:3 (String.sub content 0 nl)
  in
  let what = if version = 3 then "flat" else "binary" in
  let body = nl + 1 in
  let rec words i acc =
    if i = n then Ok (List.rev acc)
    else if body + (8 * (i + 1)) > String.length content then
      Error (Fault.Truncated (what ^ " trace events"))
    else
      let w = Int64.to_int (String.get_int64_le content (body + (8 * i))) in
      match
        let e = Event.unpack w in
        Event.make ~kind:e.Event.kind ~proc:e.Event.proc ~offset:e.Event.offset
          ~len:e.Event.len
      with
      | _ -> words (i + 1) (w :: acc)
      | exception Invalid_argument msg ->
        Error (Fault.Bad_record (Printf.sprintf "bad %s event: %s" what msg))
  in
  let trailer = body + (8 * n) in
  match words 0 [] with
  | Error e -> Error e
  | Ok ws when version < 2 -> Ok ws
  | Ok _ when String.length content < trailer + 4 -> Error (Fault.Truncated "checksum trailer")
  | Ok ws ->
    let stored = Int32.to_int (String.get_int32_le content trailer) land 0xFFFFFFFF in
    let computed = Checksum.string (String.sub content 0 trailer) in
    if stored <> computed then Error (Fault.Checksum_mismatch { stored; computed }) else Ok ws

(* A body of [blocks] whole 64 KB blocks plus [partial] words, in
   [version] (1 to 3), with [bad] words damaged in place — (word index,
   damage): kind 3, len 0 or len 2^22 + 1 — the CRC trailer of v2 and v3
   recomputed over the damage (then flipped unless [crc_ok]), and the
   file cut [cut] bytes after the header, if at all. *)
type decode_case = {
  version : int;
  blocks : int;
  partial : int;
  seed : int;
  bad : (int * int) list;
  cut : int option;
  crc_ok : bool;
}

let n_words c = (8192 * c.blocks) + c.partial

let damage kind w =
  match kind with
  | 0 -> w lor (3 lsl 61)
  | 1 -> w land lnot 0x7FFFFF
  | _ -> (w land lnot 0x7FFFFF) lor ((1 lsl 22) + 1)

let decode_content c =
  let n = n_words c in
  let rng = Random.State.make [| c.seed |] in
  let trace =
    Trace.of_list
      (List.init n (fun _ ->
           ev
             (match Random.State.int rng 3 with
             | 0 -> Event.Enter
             | 1 -> Event.Resume
             | _ -> Event.Run)
             (Random.State.int rng (1 lsl 14))
             (Random.State.int rng (1 lsl 24))
             (1 + Random.State.int rng (1 lsl 22))))
  in
  let saved =
    with_temp (fun path ->
        if c.version = 3 then Io.save_flat path trace else Io.save_binary path trace;
        read_file path)
  in
  let saved =
    if c.version > 1 then saved
    else
      (* v1: the v2 body without its trailer, under a version-1 header. *)
      let nl = String.index saved '\n' in
      Printf.sprintf "trgplace-traceb 1 %d" n
      ^ String.sub saved nl (String.length saved - nl - 4)
  in
  let b = Bytes.of_string saved in
  let body = String.index saved '\n' + 1 in
  List.iter
    (fun (i, kind) ->
      let at = body + (8 * i) in
      Bytes.set_int64_le b at
        (Int64.of_int (damage kind (Int64.to_int (Bytes.get_int64_le b at)))))
    c.bad;
  if c.version > 1 then begin
    let trailer = body + (8 * n) in
    let crc = Checksum.bytes b ~pos:0 ~len:trailer in
    Bytes.set_int32_le b trailer (Int32.of_int (if c.crc_ok then crc else crc lxor 1))
  end;
  let content = Bytes.to_string b in
  match c.cut with Some k -> String.sub content 0 (body + k) | None -> content

let gen_decode_case =
  QCheck.Gen.(
    int_range 1 3 >>= fun version ->
    int_range 0 3 >>= fun blocks ->
    int_range 0 8191 >>= fun partial ->
    let n = (8192 * blocks) + partial in
    let tail = (8 * n) + if version > 1 then 4 else 0 in
    opt (int_range 0 (max 0 (tail - 1))) >>= fun cut ->
    (* Half the bad words land just before the cut, often in the short
       block the cut leaves. *)
    let near =
      match cut with
      | Some k when k >= 8 -> map (fun d -> max 0 ((k / 8) - 1 - d)) (int_range 0 40)
      | _ -> int_range 0 (max 0 (n - 1))
    in
    let bad_word = pair (oneof [ near; int_range 0 (max 0 (n - 1)) ]) (int_range 0 2) in
    (if n = 0 then return [] else list_size (int_range 0 2) bad_word) >>= fun bad ->
    map2
      (fun seed crc_ok -> { version; blocks; partial; seed; bad; cut; crc_ok })
      (int_bound 1_000_000) (frequency [ (4, return true); (1, return false) ]))

let print_decode_case c =
  Printf.sprintf "v%d, %d blocks + %d words, seed %d, bad [%s], cut %s, crc %b" c.version
    c.blocks c.partial c.seed
    (String.concat "; " (List.map (fun (i, k) -> Printf.sprintf "%d:%d" i k) c.bad))
    (match c.cut with Some k -> string_of_int k | None -> "none")
    c.crc_ok

let prop_block_decoder_matches_reference =
  QCheck.Test.make ~name:"block decoder = word-at-a-time reference" ~count:60
    (QCheck.make gen_decode_case ~print:print_decode_case)
    (fun c ->
      let content = decode_content c in
      let loaded =
        with_temp (fun path ->
            write_file path content;
            Result.map
              (fun t -> List.init (Trace.length t) (Trace.packed t))
              (Io.load_result path))
      in
      loaded = reference_decode content)

(* The decoder's integer test and the check it stands for agree,
   including at the edges of the length field and on kind 3. *)
let prop_packed_ok_is_check_packed =
  QCheck.Test.make ~name:"Event.packed_ok = Event.check_packed" ~count:2000
    QCheck.(
      make
        Gen.(
          map3
            (fun kind len rest -> (kind lsl 61) lor (rest lsl 23) lor len)
            (int_range 0 3)
            (oneof [ int_range 0 3; int_range ((1 lsl 22) - 2) ((1 lsl 22) + 2); int_bound 0x7FFFFF ])
            (int_bound ((1 lsl 38) - 1))))
    (fun w ->
      Event.packed_ok w
      = match Event.check_packed w with () -> true | exception Invalid_argument _ -> false)

(* Regression for the out-of-bounds write in [Serial.read_layout]: an
   unvalidated proc id used to index the address array directly and
   escape as [Invalid_argument "index out of bounds"]. *)
let test_layout_id_out_of_range () =
  with_temp (fun path ->
      Serial.save_layout path sample_layout;
      check_corruption ~kind:"layout" ~mode:"id out of range"
        (fun p -> Result.map ignore (Serial.load_layout_result sample_program p))
        path
        (replace_first ~sub:"1 32" ~by:"7 32")
        [ "Bad_record" ])

let test_layout_duplicate_id () =
  with_temp (fun path ->
      Serial.save_layout path sample_layout;
      check_corruption ~kind:"layout" ~mode:"duplicate id"
        (fun p -> Result.map ignore (Serial.load_layout_result sample_program p))
        path
        (replace_first ~sub:"1 32" ~by:"0 32")
        [ "Bad_record" ])

let test_verify_layout_structural () =
  with_temp (fun path ->
      Serial.save_layout path sample_layout;
      (match Serial.verify_layout_result path with
      | Ok n -> Alcotest.(check int) "procs" 3 n
      | Error e -> Alcotest.failf "verify failed: %s" (Fault.to_string e));
      write_file path (replace_first ~sub:"1 32" ~by:"7 32" (read_file path));
      match Serial.verify_layout_result path with
      | Error (Fault.Bad_record _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e)
      | Ok _ -> Alcotest.fail "structural fault not detected")

(* A file in another order than the writer's puts ids past the grown
   array into the loader's side table; a hostile header count must not
   size anything, and faults keep their order and messages. *)
let test_layout_any_order () =
  let n = 5000 in
  let program = Program.of_sizes (Array.make n 4) in
  let layout = Layout.default program in
  let body =
    String.concat ""
      (Printf.sprintf "trgplace-layout 1 %d\n" n
      :: List.init n (fun i ->
             let p = n - 1 - i in
             Printf.sprintf "%d %d\n" p (Layout.address layout p)))
  in
  with_temp (fun path ->
      write_file path body;
      match Serial.load_layout_result program path with
      | Ok l ->
        Alcotest.(check bool)
          "same addresses" true
          (Layout.addresses l = Layout.addresses layout)
      | Error e -> Alcotest.failf "reversed layout rejected: %s" (Fault.to_string e))

let test_layout_hostile_count () =
  let verify body =
    with_temp (fun path ->
        write_file path body;
        Serial.verify_layout_result path)
  in
  let huge = 1 lsl 40 in
  (match verify (Printf.sprintf "trgplace-layout 1 %d\n%d 0\n" huge (huge - 1)) with
  | Error (Fault.Truncated "layout records") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e)
  | Ok _ -> Alcotest.fail "truncated layout accepted");
  let body = Printf.sprintf "trgplace-layout 1 %d\n1000000000 0\n1000000000 5\nx\n" huge in
  match verify body with
  | Error (Fault.Bad_record m) ->
    Alcotest.(check string) "message" "duplicate layout entry for procedure 1000000000" m
  | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e)
  | Ok _ -> Alcotest.fail "duplicate accepted"

(* --- record lines: hand parsers vs Scanf ------------------------------- *)

(* The formats the loaders used before parsing by hand, kept as the
   reference: the parsers must accept exactly these lines. *)
let scanf_program line =
  try Scanf.sscanf line "%d %d %s@\n" (fun id size name -> Some (id, size, name))
  with Scanf.Scan_failure _ | Failure _ | End_of_file | Invalid_argument _ -> None

let scanf_layout line =
  try Scanf.sscanf line "%d %d" (fun p a -> Some (p, a))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* Numbers as Scanf might meet them: signs, underscores, leading zeros,
   the ends of the int range and past them. *)
let gen_number =
  QCheck.Gen.(
    oneof
      [
        map string_of_int (int_range (-5000) 5000);
        map string_of_int int;
        oneofl
          [
            "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
            "-4611686018427387905"; "99999999999999999999"; "0"; "-0"; "+0"; "007";
            "1_000"; "1__0"; "1_"; "_1"; "+"; "-"; "+-1"; "--1"; "0x10"; "1e3";
            "4_611_686_018_427_387_904"; "00000000000000000000000000042";
          ];
      ])

let gen_chars chars n = QCheck.Gen.(string_size ~gen:(oneofl chars) (int_range 0 n))

(* Scanf's blanks, and two characters that are not. *)
let gen_blanks = gen_chars [ ' '; ' '; '\t'; '\r'; '\n'; '\011'; '\012' ] 3

let gen_junk = gen_chars [ 'a'; 'x'; ' '; '_'; '-'; '+'; '7'; '\n'; '\r'; '\t'; '#' ] 6

(* Structured lines, random bytes, and structured lines with one byte
   inserted, deleted or replaced. *)
let gen_record_line =
  QCheck.Gen.(
    let structured =
      map
        (fun (lead, (a, sep1, b), (sep2, junk)) -> lead ^ a ^ sep1 ^ b ^ sep2 ^ junk)
        (triple
           (oneofl [ ""; ""; ""; " "; "+" ])
           (triple gen_number gen_blanks gen_number)
           (pair gen_blanks gen_junk))
    in
    let mutate line =
      let n = String.length line in
      let* i = int_bound n in
      let* ch = oneofl [ ' '; '\t'; '\n'; '_'; '-'; '+'; '0'; '9'; 'z'; '\r' ] in
      let before = String.sub line 0 i and ch = String.make 1 ch in
      let after = if i < n then String.sub line (i + 1) (n - i - 1) else "" in
      oneofl
        [
          before ^ ch ^ String.sub line i (n - i) (* inserted *);
          before ^ after (* deleted *);
          before ^ ch ^ after (* replaced *);
        ]
    in
    frequency
      [
        (4, structured);
        (1, gen_chars [ '0'; '1'; '9'; ' '; '-'; '+'; '_'; '\t'; '\n'; 'a' ] 12);
        (3, structured >>= mutate);
      ])

let prop_program_record_is_scanf =
  QCheck.Test.make ~name:"program record parser accepts what Scanf does" ~count:3000
    (QCheck.make gen_record_line ~print:(Printf.sprintf "%S"))
    (fun line -> Serial.parse_program_record line = scanf_program line)

let prop_layout_record_is_scanf =
  QCheck.Test.make ~name:"layout record parser accepts what Scanf does" ~count:3000
    (QCheck.make gen_record_line ~print:(Printf.sprintf "%S"))
    (fun line -> Serial.parse_layout_record line = scanf_layout line)

(* --- writers: byte-identical to the Printf writers --------------------- *)

(* The writers as they were before, kept as the reference. *)
let printf_artifact magic n lines =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s %d %d\n" magic 2 n);
  List.iter (Buffer.add_string buf) lines;
  Buffer.add_string buf (Fault.crc_trailer (Checksum.string (Buffer.contents buf)));
  Buffer.contents buf

let printf_program program =
  printf_artifact "trgplace-program" (Program.n_procs program)
    (Array.to_list
       (Array.map
          (fun (p : Trg_program.Proc.t) -> Printf.sprintf "%d %d %s\n" p.id p.size p.name)
          (Program.procs program)))

let printf_layout layout =
  printf_artifact "trgplace-layout" (Layout.n_procs layout)
    (Array.to_list
       (Array.mapi (fun p a -> Printf.sprintf "%d %d\n" p a) (Layout.addresses layout)))

let prop_writers_match_printf =
  QCheck.Test.make ~name:"program and layout writers match the Printf writers" ~count:200
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_range 0 60)
               (pair (int_range 1 100_000) (string_size ~gen:printable (int_range 0 12))))
            (int_range 0 1000))
        ~print:(fun (procs, seed) ->
          Printf.sprintf "seed %d, procs %s" seed
            (Print.(list (pair int string)) procs)))
    (fun (procs, seed) ->
      let procs =
        List.mapi
          (fun id (size, name) ->
            (* Unique names without a newline, as a program requires. *)
            let name = String.map (fun c -> if c = '\n' then '_' else c) name in
            Trg_program.Proc.make ~id ~size ~name:(name ^ "#" ^ string_of_int id))
          procs
      in
      let program = Program.make (Array.of_list procs) in
      let layout = Layout.random (Trg_util.Prng.create seed) ~align:4 program in
      with_temp (fun path ->
          Serial.save_program path program;
          let p = read_file path in
          Serial.save_layout path layout;
          p = printf_program program && read_file path = printf_layout layout))

(* Loading go's program and layout, one job's [program.load], used to
   cost about 280 words per line in [Scanf]. *)
let test_load_allocation () =
  let program = (Trg_synth.Gen.generate (Trg_synth.Bench.find "go")).Trg_synth.Gen.program in
  let layout = Layout.default program in
  let lines = Program.n_procs program + 2 in
  let words f =
    let a0 = Trg_eval.Perfrun.allocated_words () in
    ignore (Sys.opaque_identity (f ()));
    Trg_eval.Perfrun.allocated_words () -. a0
  in
  with_temp (fun path ->
      Serial.save_program path program;
      let w = words (fun () -> Serial.load_program path) in
      Alcotest.(check bool)
        (Printf.sprintf "program: %.0f words for %d lines" w lines)
        true
        (w <= 40. *. float_of_int lines);
      Serial.save_layout path layout;
      let w = words (fun () -> Serial.load_layout program path) in
      Alcotest.(check bool)
        (Printf.sprintf "layout: %.0f words for %d lines" w lines)
        true
        (w <= 40. *. float_of_int lines))

(* --- fault injector -------------------------------------------------- *)

let test_injector_deterministic () =
  let payload = String.concat "\n" (List.init 50 (fun i -> string_of_int (i * 7))) in
  let corrupt seed =
    Fault.corrupt (Fault.injector ~bit_flip_rate:0.05 ~truncate_rate:0.2 ~seed ()) payload
  in
  Alcotest.(check string) "same seed, same damage" (corrupt 42) (corrupt 42);
  Alcotest.(check bool) "damage applied" true (corrupt 42 <> payload)

let test_injector_io_failures () =
  let inj = Fault.injector ~io_fail_rate:1.0 ~seed:7 () in
  with_temp (fun path ->
      Io.save path sample_trace;
      let before = read_file path in
      (* Writes fail with a typed error and leave the artifact intact... *)
      (match Fault.with_injector inj (fun () -> Io.save_result path Trace.(of_list [])) with
      | Error (Fault.Io_error _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e)
      | Ok () -> Alcotest.fail "injected write fault did not fire");
      Alcotest.(check string) "original artifact untouched" before (read_file path);
      Alcotest.(check bool) "no temp residue" false (Sys.file_exists (path ^ ".tmp"));
      (* ...and reads fail with a typed error too. *)
      match Fault.with_injector inj (fun () -> Io.load_result path) with
      | Error (Fault.Io_error _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e)
      | Ok _ -> Alcotest.fail "injected read fault did not fire")

let test_injector_corrupts_writes () =
  (* Heavy bit-flipping on the write path: whatever the damage hits —
     header, records, trailer — the loader must answer with a typed
     error, never an escaped exception. *)
  let inj = Fault.injector ~bit_flip_rate:0.02 ~seed:3 () in
  let big = Trace.of_list (List.concat (List.init 40 (fun _ -> sample_events))) in
  with_temp (fun path ->
      (match Fault.with_injector inj (fun () -> Io.save_result path big) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save failed: %s" (Fault.to_string e));
      match try `Result (Io.load_result path) with e -> `Raised e with
      | `Result (Error _) -> ()
      | `Result (Ok t) ->
        (* Astronomically unlikely with ~70 expected flips, but only a
           clean CRC would let it through. *)
        Alcotest.(check bool) "flips evaded the CRC" true (Trace.to_list t = Trace.to_list big)
      | `Raised e ->
        Alcotest.failf "untyped exception escaped: %s" (Printexc.to_string e))

(* --- retry ----------------------------------------------------------- *)

let test_retry_succeeds_after_transients () =
  let calls = ref 0 in
  let slept = ref [] in
  let v =
    Fault.with_retry ~attempts:5 ~base_delay:0.01
      ~sleep:(fun d -> slept := d :: !slept)
      (fun () ->
        incr calls;
        if !calls < 3 then Fault.fail (Fault.Io_error "transient");
        "done")
  in
  Alcotest.(check string) "value" "done" v;
  Alcotest.(check int) "attempts used" 3 !calls;
  Alcotest.(check (list (float 1e-9))) "exponential backoff" [ 0.02; 0.01 ] !slept

let test_retry_exhausts () =
  let calls = ref 0 in
  (match
     Fault.with_retry ~attempts:3 (fun () ->
         incr calls;
         Fault.fail (Fault.Io_error "still down"))
   with
  | (_ : unit) -> Alcotest.fail "expected failure"
  | exception Fault.Error (Fault.Io_error _) -> ());
  Alcotest.(check int) "all attempts used" 3 !calls

let test_retry_not_retryable () =
  let calls = ref 0 in
  (match
     Fault.with_retry ~attempts:3 (fun () ->
         incr calls;
         failwith "logic bug")
   with
  | (_ : unit) -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "no retries for permanent errors" 1 !calls

(* --- failure-isolating batch runner ---------------------------------- *)

let isolation_options =
  {
    Report.runs = 1;
    fig6_points = 3;
    benches = [ Trg_synth.Bench.find "small"; Trg_synth.Bench.find "go" ];
    print_cdf = false;
    print_points = false;
    keep_going = true;
    force_fail = [ "go" ];
    jobs = 2;
    timeout = None;
    retries = 0;
    policy = Trg_cache.Policy.Lru;
    cpus = Trg_cache.Cpu.default_selection;
  }

let test_strict_mode_propagates () =
  match Report.table1 { isolation_options with keep_going = false } with
  | _ -> Alcotest.fail "strict mode swallowed the failure"
  | exception Failure msg ->
    Alcotest.(check bool) "names the benchmark" true
      (String.length msg >= 2 && String.sub msg 0 2 = "go")

let test_keep_going_isolates () =
  let failures = Report.table1 isolation_options in
  Alcotest.(check int) "one failure recorded" 1 (List.length failures);
  let f = List.hd failures in
  Alcotest.(check string) "experiment" "table1" f.Report.experiment;
  Alcotest.(check (option string)) "bench" (Some "go") f.Report.bench

let test_keep_going_batch () =
  let failures = Report.all isolation_options in
  Alcotest.(check bool) "failures recorded" true (failures <> []);
  (* Only the forced benchmark fails; everything on [small] completed. *)
  List.iter
    (fun (f : Report.failure) ->
      Alcotest.(check (option string))
        (Printf.sprintf "failure traces to the broken benchmark (%s/%s)"
           f.Report.experiment f.Report.message)
        (Some "go") f.Report.bench)
    failures

let suite =
  [
    Alcotest.test_case "crc32 check vector" `Quick test_crc_vector;
    Alcotest.test_case "crc32 chaining" `Quick test_crc_chaining;
    Alcotest.test_case "crc32 hex roundtrip" `Quick test_crc_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_crc_short_slices;
    QCheck_alcotest.to_alcotest prop_crc_long_and_chained;
    Alcotest.test_case "v2 text trace roundtrip" `Quick test_text_trace_roundtrip;
    Alcotest.test_case "v2 binary trace roundtrip" `Quick test_binary_trace_roundtrip;
    Alcotest.test_case "v2 program roundtrip" `Quick test_program_roundtrip;
    Alcotest.test_case "v2 layout roundtrip" `Quick test_layout_roundtrip;
    Alcotest.test_case "missing file is Io_error" `Quick test_missing_file;
    Alcotest.test_case "v1 text trace loads" `Quick test_v1_text_trace_loads;
    Alcotest.test_case "v1 binary trace loads" `Quick test_v1_binary_trace_loads;
    Alcotest.test_case "v1 program/layout load" `Quick test_v1_program_and_layout_load;
    Alcotest.test_case "corruption matrix" `Quick test_corruption_matrix;
    Alcotest.test_case "bit flips detected" `Quick test_bit_flips_detected;
    Alcotest.test_case "binary bad record" `Quick test_binary_bad_record;
    Alcotest.test_case "v3 header fixed width" `Quick test_v3_header_fixed_width;
    Alcotest.test_case "v3 flat bad record" `Quick test_flat_bad_record;
    Alcotest.test_case "v3 chunked roundtrip" `Quick test_flat_chunked_roundtrip;
    Alcotest.test_case "v3 chunked truncation matrix" `Quick test_flat_chunked_truncation_matrix;
    Alcotest.test_case "v3 chunked bit flip" `Quick test_flat_chunked_bit_flip;
    Alcotest.test_case "v3 bad word before truncation" `Quick test_flat_fault_order;
    Alcotest.test_case "hostile word count is truncation" `Quick test_hostile_word_count;
    Alcotest.test_case "bad word rejected by every version" `Quick test_bad_word_every_version;
    QCheck_alcotest.to_alcotest prop_block_decoder_matches_reference;
    QCheck_alcotest.to_alcotest prop_packed_ok_is_check_packed;
    Alcotest.test_case "layout id out of range" `Quick test_layout_id_out_of_range;
    Alcotest.test_case "layout duplicate id" `Quick test_layout_duplicate_id;
    Alcotest.test_case "verify layout structural" `Quick test_verify_layout_structural;
    Alcotest.test_case "layout records in any order" `Quick test_layout_any_order;
    Alcotest.test_case "layout hostile count" `Quick test_layout_hostile_count;
    QCheck_alcotest.to_alcotest prop_program_record_is_scanf;
    QCheck_alcotest.to_alcotest prop_layout_record_is_scanf;
    QCheck_alcotest.to_alcotest prop_writers_match_printf;
    Alcotest.test_case "go program and layout load allocation" `Quick test_load_allocation;
    Alcotest.test_case "injector deterministic" `Quick test_injector_deterministic;
    Alcotest.test_case "injector io failures" `Quick test_injector_io_failures;
    Alcotest.test_case "injector corrupts writes" `Quick test_injector_corrupts_writes;
    Alcotest.test_case "retry after transients" `Quick test_retry_succeeds_after_transients;
    Alcotest.test_case "retry exhausts" `Quick test_retry_exhausts;
    Alcotest.test_case "retry permanent error" `Quick test_retry_not_retryable;
    Alcotest.test_case "strict mode propagates" `Quick test_strict_mode_propagates;
    Alcotest.test_case "keep-going isolates" `Quick test_keep_going_isolates;
    Alcotest.test_case "keep-going batch reports partial" `Slow test_keep_going_batch;
  ]
