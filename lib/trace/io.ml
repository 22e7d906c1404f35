module Fault = Trg_util.Fault
module Checksum = Trg_util.Checksum

let magic = "trgplace-trace"

let binary_magic = "trgplace-traceb"

let version = 2

let version_flat = 3

(* Hostile headers can claim absurd counts; builders grow on demand, so
   cap the upfront allocation instead of trusting the header. *)
let initial_capacity n = max 1 (min n 65536)

(* --- serialisation --------------------------------------------------- *)

let text_string trace =
  let buf = Buffer.create (16 * Trace.length trace + 64) in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d\n" magic version (Trace.length trace));
  Trace.iter
    (fun (e : Event.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%c %d %d %d\n" (Event.kind_to_char e.kind) e.proc
           e.offset e.len))
    trace;
  let crc = Checksum.string (Buffer.contents buf) in
  Buffer.add_string buf (Fault.crc_trailer crc);
  Buffer.contents buf

(* A binary body in one exact-size buffer: the header line, one
   little-endian word per event, then the CRC-32 of every byte before
   it. *)
let words_string header trace =
  let h = String.length header and n = Trace.length trace in
  let body = h + (8 * n) in
  let buf = Bytes.create (body + 4) in
  Bytes.blit_string header 0 buf 0 h;
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf (h + (8 * i)) (Int64.of_int (Trace.packed trace i))
  done;
  Bytes.set_int32_le buf body (Int32.of_int (Checksum.bytes buf ~pos:0 ~len:body));
  Bytes.unsafe_to_string buf

let binary_string trace =
  words_string
    (Printf.sprintf "%s %d %d\n" binary_magic version (Trace.length trace))
    trace

(* v3 header: the same [<magic> <version> <n>] fields, right-padded with
   spaces so the header line (newline included) is 32 bytes — or the
   next multiple of 8 for astronomically large counts.  Space padding is
   transparent to [Fault.parse_header]'s tokeniser, and the payload words
   start at an 8-aligned file offset. *)
let flat_header n =
  let base = Printf.sprintf "%s %d %d" binary_magic version_flat n in
  let target =
    let l = max (String.length base) 31 in
    (((l + 1 + 7) / 8) * 8) - 1
  in
  base ^ String.make (target - String.length base) ' ' ^ "\n"

let flat_string trace = words_string (flat_header (Trace.length trace)) trace

let write_channel oc trace = output_string oc (text_string trace)

let write_channel_binary oc trace = output_string oc (binary_string trace)

(* --- parsing --------------------------------------------------------- *)

let parse_event line =
  try
    Scanf.sscanf line "%c %d %d %d" (fun k proc offset len ->
        Event.make ~kind:(Event.kind_of_char k) ~proc ~offset ~len)
  with
  | Scanf.Scan_failure _ | Failure _ | End_of_file | Invalid_argument _ ->
    Fault.fail (Fault.Bad_record ("bad event line: " ^ line))

(* Shared text body reader: [read_channel] and [load] both end up here. *)
let read_text_body r ~version ~n =
  let builder = Trace.Builder.create ~capacity:(initial_capacity n) () in
  for _ = 1 to n do
    Trace.Builder.add builder (parse_event (Fault.Reader.line r ~what:"trace events"))
  done;
  if version >= 2 then Fault.check_text_trailer r;
  Trace.Builder.build builder

(* Words per decode block: 64 KB. *)
let block_words = 8192

(* A word [Event.packed_ok] rejected, reported with the message of
   [Event.check_packed]. *)
let bad_word what w =
  let msg =
    match Event.check_packed w with
    | () -> assert false
    | exception Invalid_argument msg -> msg
  in
  Fault.fail (Fault.Bad_record (Printf.sprintf "bad %s event: %s" what msg))

(* The binary body decoder, every version: [n] little-endian words read
   in 64 KB blocks, each block folded into the CRC and then checked and
   stored by one loop ({!Trace.Builder.add_words}), so no [Event.t] is
   built; v2 and v3 end in the CRC trailer.  The trace is sized from the
   bytes left in the file when the channel can tell, which a well-formed
   file makes exactly [n], so the builder hands its buffer over
   uncopied.  A hostile count sizes no allocation and is never
   multiplied (8n overflows for n >= 2^59): a block is
   [min left block_words] words.  A short block still has its whole
   words checked before the truncation is reported, so faults surface in
   the order a word-at-a-time reader meets them: a bad word, a truncated
   body, then the trailer. *)
let read_words_body r ~what ~trailer ~n =
  let capacity =
    match Fault.Reader.remaining r with
    | Some bytes -> min n (bytes / 8)
    | None -> initial_capacity n
  in
  let builder = Trace.Builder.create ~capacity () in
  let buf = Bytes.create (8 * min n block_words) in
  let left = ref n in
  while !left > 0 do
    let want = 8 * min !left block_words in
    let got = Fault.Reader.input r buf ~len:want in
    let words = got / 8 in
    let good = Trace.Builder.add_words builder buf words in
    if good < words then bad_word what (Int64.to_int (Bytes.get_int64_le buf (8 * good)));
    if got < want then Fault.fail (Fault.Truncated (what ^ " trace events"));
    left := !left - words
  done;
  if trailer then Fault.check_binary_trailer r;
  Trace.Builder.build builder

(* Dispatch on the header's magic word; both formats, every version
   (the binary magic covers the v1/v2 and v3 bodies alike). *)
let read_reader r =
  let header = Fault.Reader.line r ~what:"trace header" in
  match Fault.magic_of_line header with
  | m when m = binary_magic ->
    let version, n =
      Fault.parse_header ~magic:binary_magic ~max_version:version_flat header
    in
    let what = if version = version_flat then "flat" else "binary" in
    read_words_body r ~what ~trailer:(version >= 2) ~n
  | m when m = magic ->
    let version, n = Fault.parse_header ~magic ~max_version:version header in
    read_text_body r ~version ~n
  | got -> Fault.fail (Fault.Bad_magic { expected = magic; got })

let read_channel ic = Fault.or_fail (fun () -> read_reader (Fault.Reader.of_channel ic))

let read_channel_binary ic = read_channel ic

(* --- files ----------------------------------------------------------- *)

let load_result path =
  Fault.result (fun () ->
      Fault.io_point ~op:("read " ^ path);
      In_channel.with_open_bin path (fun ic ->
          read_reader (Fault.Reader.of_channel ic)))

let save_result path trace =
  Fault.result (fun () -> Fault.atomic_write path (text_string trace))

let save_binary_result path trace =
  Fault.result (fun () -> Fault.atomic_write path (binary_string trace))

let save_flat_result path trace =
  Fault.result (fun () -> Fault.atomic_write path (flat_string trace))

let load_flat_result = load_result

let unwrap = function Ok v -> v | Error e -> failwith (Fault.to_string e)

let load path = unwrap (load_result path)

let save path trace = unwrap (save_result path trace)

let save_binary path trace = unwrap (save_binary_result path trace)

let load_flat = load

let save_flat path trace = unwrap (save_flat_result path trace)
