type kind = Enter | Resume | Run

type t = { kind : kind; proc : int; offset : int; len : int }

let max_proc = 1 lsl 14
let max_offset = 1 lsl 24
let max_len = 1 lsl 22

let check_len len =
  if len <= 0 || len > max_len then invalid_arg "Event.make: len out of range"

let make ~kind ~proc ~offset ~len =
  if proc < 0 || proc >= max_proc then invalid_arg "Event.make: proc out of range";
  if offset < 0 || offset >= max_offset then
    invalid_arg "Event.make: offset out of range";
  check_len len;
  { kind; proc; offset; len }

let is_transition t =
  match t.kind with Enter | Resume -> true | Run -> false

let kind_to_char = function Enter -> 'E' | Resume -> 'R' | Run -> '.'

let kind_of_char = function
  | 'E' -> Enter
  | 'R' -> Resume
  | '.' -> Run
  | c -> invalid_arg (Printf.sprintf "Event.kind_of_char: %C" c)

let kind_to_int = function Enter -> 0 | Resume -> 1 | Run -> 2

(* [unpack] feeds this with untrusted on-disk words, so an unknown tag is
   a data error, not a broken internal invariant. *)
let kind_of_int = function
  | 0 -> Enter
  | 1 -> Resume
  | 2 -> Run
  | k -> invalid_arg (Printf.sprintf "Event.kind_of_int: %d" k)

(* Bit layout (low to high): len:23 | offset:24 | proc:14 | kind:2 *)
let pack t =
  t.len lor (t.offset lsl 23) lor (t.proc lsl 47) lor (kind_to_int t.kind lsl 61)

let unpack w =
  {
    len = w land 0x7FFFFF;
    offset = (w lsr 23) land 0xFFFFFF;
    proc = (w lsr 47) land 0x3FFF;
    kind = kind_of_int ((w lsr 61) land 3);
  }

(* Field extraction without materialising a record — the simulation
   loops stay allocation-free. *)
let packed_len w = w land 0x7FFFFF

let packed_offset w = (w lsr 23) land 0xFFFFFF

let packed_proc w = (w lsr 47) land 0x3FFF

let packed_kind_bits w = (w lsr 61) land 3

let packed_kind w = kind_of_int (packed_kind_bits w)

(* [unpack]'s masks keep proc and offset in range, so a word can fail
   [make (unpack w)] only on its kind bits or its length.  The kinds are
   constant constructors: nothing here allocates unless it raises. *)
let check_packed w =
  ignore (packed_kind w : kind);
  check_len (packed_len w)

let[@inline] packed_ok w =
  let len = packed_len w in
  (w lsr 61) land 3 <> 3 && len >= 1 && len <= max_len

let pp ppf t =
  Format.fprintf ppf "%c p%d+%d:%d" (kind_to_char t.kind) t.proc t.offset t.len
