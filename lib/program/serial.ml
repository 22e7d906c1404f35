module Fault = Trg_util.Fault
module Checksum = Trg_util.Checksum

let program_magic = "trgplace-program"

let layout_magic = "trgplace-layout"

let version = 2

(* --- serialisation --------------------------------------------------- *)

let with_trailer buf =
  let crc = Checksum.string (Buffer.contents buf) in
  Buffer.add_string buf (Fault.crc_trailer crc);
  Buffer.contents buf

(* Records are written without [Printf], which costs more per line than
   the line itself. *)
let add_int buf i = Buffer.add_string buf (string_of_int i)

let add_header buf magic n =
  Buffer.add_string buf magic;
  Buffer.add_char buf ' ';
  add_int buf version;
  Buffer.add_char buf ' ';
  add_int buf n;
  Buffer.add_char buf '\n'

let program_string program =
  let buf = Buffer.create 1024 in
  add_header buf program_magic (Program.n_procs program);
  Program.iter
    (fun (p : Proc.t) ->
      add_int buf p.id;
      Buffer.add_char buf ' ';
      add_int buf p.size;
      Buffer.add_char buf ' ';
      Buffer.add_string buf p.name;
      Buffer.add_char buf '\n')
    program;
  with_trailer buf

let layout_string layout =
  let buf = Buffer.create 1024 in
  add_header buf layout_magic (Layout.n_procs layout);
  for p = 0 to Layout.n_procs layout - 1 do
    add_int buf p;
    Buffer.add_char buf ' ';
    add_int buf (Layout.address layout p);
    Buffer.add_char buf '\n'
  done;
  with_trailer buf

let write_program oc program = output_string oc (program_string program)

let write_layout oc layout = output_string oc (layout_string layout)

(* --- parsing --------------------------------------------------------- *)

let bad_record fmt = Printf.ksprintf (fun m -> Fault.fail (Fault.Bad_record m)) fmt

(* Record lines are parsed by hand, accepting exactly what the formats
   ["%d %d %s@\n"] (programs) and ["%d %d"] (layouts) accept under
   [Scanf.sscanf]: [%d] is an optional sign, a decimal digit, then
   digits and underscores, worth at most [max_int] and at least
   [min_int]; a space is any run of spaces, tabs, newlines and carriage
   returns, maybe empty; [%s@\n] is the rest of the line up to a
   newline.  Anything after a layout record's second number is
   ignored.  A [cursor] is reused for every line of a file, so a parse
   allocates nothing. *)
exception Bad_line

type cursor = { mutable line : string; mutable pos : int }

let at c line =
  c.line <- line;
  c.pos <- 0

let is_digit ch = ch >= '0' && ch <= '9'

let is_blank = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_blanks c =
  while c.pos < String.length c.line && is_blank c.line.[c.pos] do
    c.pos <- c.pos + 1
  done

(* Accumulates the negated value, so that [min_int] fits. *)
let int_field c =
  let s = c.line and n = String.length c.line in
  let i = c.pos in
  let negative = i < n && s.[i] = '-' in
  let i = if i < n && (s.[i] = '-' || s.[i] = '+') then i + 1 else i in
  if i >= n || not (is_digit s.[i]) then raise_notrace Bad_line;
  let acc = ref 0 and i = ref i in
  while !i < n && (is_digit s.[!i] || s.[!i] = '_') do
    if s.[!i] <> '_' then begin
      let d = Char.code s.[!i] - Char.code '0' in
      if !acc < min_int / 10 || (!acc = min_int / 10 && d > -(min_int mod 10)) then
        raise_notrace Bad_line;
      acc := (!acc * 10) - d
    end;
    incr i
  done;
  c.pos <- !i;
  if negative then !acc
  else if !acc = min_int then raise_notrace Bad_line
  else - !acc

let rest_of_line c =
  let stop =
    match String.index_from_opt c.line c.pos '\n' with
    | Some j -> j
    | None -> String.length c.line
  in
  String.sub c.line c.pos (stop - c.pos)

(* A program record's fields, handed to [k] rather than returned as a
   tuple. *)
let program_record c k =
  let id = int_field c in
  skip_blanks c;
  let size = int_field c in
  skip_blanks c;
  k ~id ~name:(rest_of_line c) ~size

let layout_record c =
  let p = int_field c in
  skip_blanks c;
  (p, int_field c)

let parse record line =
  let c = { line; pos = 0 } in
  match record c with v -> Some v | exception Bad_line -> None

let parse_program_record =
  parse (fun c -> program_record c (fun ~id ~name ~size -> (id, size, name)))

let parse_layout_record = parse layout_record

let read_program_reader r =
  let header = Fault.Reader.line r ~what:"program header" in
  let version, n =
    Fault.parse_header ~magic:program_magic ~max_version:version header
  in
  let c = { line = ""; pos = 0 } in
  let procs = ref [] in
  for _ = 1 to n do
    let line = Fault.Reader.line r ~what:"program records" in
    at c line;
    let proc =
      try program_record c Proc.make
      with Bad_line | Invalid_argument _ -> bad_record "bad procedure line: %s" line
    in
    procs := proc :: !procs
  done;
  if version >= 2 then Fault.check_text_trailer r;
  try Program.make (Array.of_list (List.rev !procs))
  with Invalid_argument msg -> bad_record "invalid program: %s" msg

(* Structural layout parse: header + records + trailer, with ids checked
   against the record count.  Cross-validation against a program (count
   match, overlap) happens in [read_layout_reader] on top of this. *)
let read_layout_records r =
  let header = Fault.Reader.line r ~what:"layout header" in
  let version, n =
    Fault.parse_header ~magic:layout_magic ~max_version:version header
  in
  (* Addresses by id, [-1] until the id's record is read (a stored
     address is never negative).  n is only trusted once n records have
     parsed, so a hostile header count must not size an allocation: the
     array starts at [min n 4096] and grows to fit an id only while that
     stays within twice the records read so far, plus 4096.  A record
     whose id lies further out waits in [far]; a file in id order, as
     written here, never puts one there. *)
  let addr = ref (Array.make (min n 4096) (-1)) in
  let far = Hashtbl.create 16 in
  let seen p =
    (p < Array.length !addr && !addr.(p) >= 0)
    || (Hashtbl.length far > 0 && Hashtbl.mem far p)
  in
  let store ~read p a =
    let len = Array.length !addr in
    if p < len then !addr.(p) <- a
    else if p < (2 * read) + 4096 then begin
      let grown = Array.make (min n (max (p + 1) (2 * len))) (-1) in
      Array.blit !addr 0 grown 0 len;
      grown.(p) <- a;
      addr := grown
    end
    else Hashtbl.add far p a
  in
  let c = { line = ""; pos = 0 } in
  for read = 1 to n do
    let line = Fault.Reader.line r ~what:"layout records" in
    at c line;
    let p, a =
      try layout_record c with Bad_line -> bad_record "bad layout line: %s" line
    in
    if p < 0 || p >= n then
      bad_record "layout procedure id %d out of range [0, %d)" p n;
    if seen p then bad_record "duplicate layout entry for procedure %d" p;
    if a < 0 then bad_record "negative address %d for procedure %d" a p;
    store ~read p a
  done;
  if version >= 2 then Fault.check_text_trailer r;
  (* n records with distinct ids in [0, n) is a bijection, so every id
     is present. *)
  let addr = !addr in
  if Hashtbl.length far = 0 then (n, addr)
  else
    ( n,
      Array.init n (fun p ->
          if p < Array.length addr && addr.(p) >= 0 then addr.(p)
          else Hashtbl.find far p) )

let read_layout_reader program r =
  let n, addr = read_layout_records r in
  if n <> Program.n_procs program then
    bad_record "layout has %d procedures but the program has %d" n
      (Program.n_procs program);
  try Layout.of_addresses program addr
  with Invalid_argument msg -> bad_record "invalid layout: %s" msg

let read_program ic =
  Fault.or_fail (fun () -> read_program_reader (Fault.Reader.of_channel ic))

let read_layout program ic =
  Fault.or_fail (fun () -> read_layout_reader program (Fault.Reader.of_channel ic))

(* --- files ----------------------------------------------------------- *)

let load ~op path parse =
  Fault.result (fun () ->
      Fault.io_point ~op:(op ^ " " ^ path);
      In_channel.with_open_bin path (fun ic ->
          parse (Fault.Reader.of_channel ic)))

let load_program_result path = load ~op:"read program" path read_program_reader

let load_layout_result program path =
  load ~op:"read layout" path (read_layout_reader program)

let verify_layout_result path =
  load ~op:"verify layout" path (fun r -> fst (read_layout_records r))

let save_program_result path program =
  Fault.result (fun () -> Fault.atomic_write path (program_string program))

let save_layout_result path layout =
  Fault.result (fun () -> Fault.atomic_write path (layout_string layout))

let unwrap = function Ok v -> v | Error e -> failwith (Fault.to_string e)

let save_program path program = unwrap (save_program_result path program)

let load_program path = unwrap (load_program_result path)

let save_layout path layout = unwrap (save_layout_result path layout)

let load_layout program path = unwrap (load_layout_result program path)
