type error =
  | Bad_magic of { expected : string; got : string }
  | Unsupported_version of { magic : string; got : int }
  | Checksum_mismatch of { stored : int; computed : int }
  | Truncated of string
  | Bad_record of string
  | Io_error of string

exception Error of error

let fail e = raise (Error e)

let to_string = function
  | Bad_magic { expected; got } ->
    Printf.sprintf "bad magic: expected %S, got %S" expected got
  | Unsupported_version { magic; got } ->
    Printf.sprintf "unsupported %s version %d" magic got
  | Checksum_mismatch { stored; computed } ->
    Printf.sprintf "checksum mismatch: file records %s, contents hash to %s"
      (Checksum.to_hex stored) (Checksum.to_hex computed)
  | Truncated what -> Printf.sprintf "truncated input while reading %s" what
  | Bad_record msg -> Printf.sprintf "bad record: %s" msg
  | Io_error msg -> Printf.sprintf "i/o error: %s" msg

let pp fmt e = Format.pp_print_string fmt (to_string e)

let result f =
  try Ok (f ()) with
  | Error e -> Result.Error e
  | Sys_error msg -> Result.Error (Io_error msg)

let or_fail f =
  try f () with
  | Error e -> failwith (to_string e)

(* --- framing --------------------------------------------------------- *)

let tokens line =
  String.split_on_char ' ' (String.trim line)
  |> List.filter (fun t -> t <> "")

let magic_of_line line = match tokens line with m :: _ -> m | [] -> ""

let parse_header ~magic ~max_version line =
  match tokens line with
  | m :: _ when m <> magic -> fail (Bad_magic { expected = magic; got = m })
  | [ _; v; n ] ->
    let v =
      match int_of_string_opt v with
      | Some v -> v
      | None -> fail (Bad_record ("malformed header: " ^ line))
    in
    if v < 1 || v > max_version then
      fail (Unsupported_version { magic; got = v });
    let n =
      match int_of_string_opt n with
      | Some n -> n
      | None -> fail (Bad_record ("malformed header: " ^ line))
    in
    if n < 0 then fail (Bad_record ("negative record count: " ^ line));
    (v, n)
  | [] -> fail (Bad_magic { expected = magic; got = "" })
  | _ -> fail (Bad_record ("malformed header: " ^ line))

module Reader = struct
  type t = { ic : in_channel; mutable crc : int }

  let of_channel ic = { ic; crc = Checksum.empty }

  let line t ~what =
    match input_line t.ic with
    | line ->
      (* The writers terminate every line with '\n', so folding the
         reconstructed [line ^ "\n"] reproduces the written bytes. *)
      t.crc <- Checksum.string ~crc:(Checksum.string ~crc:t.crc line) "\n";
      line
    | exception End_of_file -> fail (Truncated what)

  let input t buf ~len =
    let rec fill pos =
      if pos = len then pos
      else match Stdlib.input t.ic buf pos (len - pos) with 0 -> pos | k -> fill (pos + k)
    in
    let got = fill 0 in
    t.crc <- Checksum.bytes ~crc:t.crc buf ~pos:0 ~len:got;
    got

  let remaining t =
    match (In_channel.length t.ic, In_channel.pos t.ic) with
    | len, pos -> Some (Int64.to_int (Int64.sub len pos))
    | exception Sys_error _ -> None

  let crc t = t.crc
end

let crc_trailer crc = Printf.sprintf "#crc %s\n" (Checksum.to_hex crc)

let check_text_trailer r =
  let computed = Reader.crc r in
  let line = Reader.line r ~what:"checksum trailer" in
  match tokens line with
  | [ "#crc"; hex ] -> (
    match Checksum.of_hex hex with
    | Some stored when stored = computed -> ()
    | Some stored -> fail (Checksum_mismatch { stored; computed })
    | None -> fail (Bad_record ("malformed checksum trailer: " ^ line)))
  | _ -> fail (Bad_record ("malformed checksum trailer: " ^ line))

let check_binary_trailer (r : Reader.t) =
  let computed = Reader.crc r in
  let buf = Bytes.create 4 in
  (* Read the trailer bytes directly: they must not fold into the CRC. *)
  (try really_input r.Reader.ic buf 0 4
   with End_of_file -> fail (Truncated "checksum trailer"));
  let stored = Int32.to_int (Bytes.get_int32_le buf 0) land 0xFFFFFFFF in
  if stored <> computed then fail (Checksum_mismatch { stored; computed })

(* --- fault injection ------------------------------------------------- *)

type injector = {
  prng : Prng.t;
  bit_flip_rate : float;
  truncate_rate : float;
  io_fail_rate : float;
}

let injector ?(bit_flip_rate = 0.) ?(truncate_rate = 0.) ?(io_fail_rate = 0.)
    ~seed () =
  { prng = Prng.create seed; bit_flip_rate; truncate_rate; io_fail_rate }

let corrupt inj s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  if inj.bit_flip_rate > 0. then
    for i = 0 to n - 1 do
      if Prng.bernoulli inj.prng inj.bit_flip_rate then
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int inj.prng 8)))
    done;
  let b =
    if n > 0 && inj.truncate_rate > 0. && Prng.bernoulli inj.prng inj.truncate_rate
    then Bytes.sub b 0 (Prng.int inj.prng n)
    else b
  in
  Bytes.unsafe_to_string b

let io_fault inj ~op =
  if inj.io_fail_rate > 0. && Prng.bernoulli inj.prng inj.io_fail_rate then
    fail (Io_error ("injected fault: " ^ op))

let ambient : injector option ref = ref None

let with_injector inj f =
  let previous = !ambient in
  ambient := Some inj;
  Fun.protect ~finally:(fun () -> ambient := previous) f

let ambient_fault ~op =
  match !ambient with Some inj -> io_fault inj ~op | None -> ()

let io_point ~op = ambient_fault ~op

let ambient_corrupt content =
  match !ambient with Some inj -> corrupt inj content | None -> content

(* --- atomic file I/O ------------------------------------------------- *)

let read_file path =
  ambient_fault ~op:("read " ^ path);
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> fail (Io_error msg)

let atomic_write path content =
  ambient_fault ~op:("write " ^ path);
  let content = ambient_corrupt content in
  let tmp = path ^ ".tmp" in
  try
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc content);
    Sys.rename tmp path
  with Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    fail (Io_error msg)

(* --- retry ----------------------------------------------------------- *)

let default_retryable = function
  | Error (Io_error _) | Sys_error _ -> true
  | _ -> false

let with_retry ?(attempts = 3) ?(base_delay = 0.05) ?(sleep = fun _ -> ())
    ?(retryable = default_retryable) f =
  if attempts < 1 then invalid_arg "Fault.with_retry: attempts < 1";
  let rec go k =
    try f ()
    with e when retryable e && k < attempts - 1 ->
      sleep (base_delay *. (2. ** float_of_int k));
      go (k + 1)
  in
  go 0
