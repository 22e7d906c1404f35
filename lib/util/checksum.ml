(* CRC-32.  The digest lives in the low 32 bits of an int; OCaml ints
   are 63-bit so no overflow handling is needed.  Slices of 64 bytes or
   more go through the carry-less fold of crc_stubs.c where the processor
   has it, up to their last 16-byte multiple; everything else, and every
   slice on other processors, goes through slicing-by-8.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic byte-at-a-time table, and entry [n] of table [k] is the CRC
   register after feeding byte [n] followed by [k] zero bytes.  One step
   then folds eight input bytes with eight independent lookups. *)

let mask = 0xFFFFFFFF

let tables =
  lazy
    (let t = Array.make 2048 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let empty = 0

let word s i = Int32.to_int (String.get_int32_le s i) land mask

(* [c] is the 32-bit register, held inverted as the digest starts it;
   [slice8] and [fold] below both take and return it so. *)
let slice8 c s ~pos ~len =
  let t = Lazy.force tables in
  (* A 32-bit register keeps every table index below in range. *)
  let c = ref c in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor word s !i and hi = word s (!i + 4) in
    c :=
      Array.unsafe_get t (1792 + (lo land 0xFF))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xFF))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := (!c lsr 8) lxor t.((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
  done;
  !c

(* The carry-less fold of crc_stubs.c: [len] a multiple of 16, at least
   64, read from [pos]. *)
external fold :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "trg_crc_fold_byte" "trg_crc_fold"
[@@noalloc]

external fold_supported : unit -> bool = "trg_crc_accelerated" [@@noalloc]

let accelerated = fold_supported ()

let check_range name s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg name

let portable ?(crc = empty) s ~pos ~len =
  check_range "Checksum.portable" s ~pos ~len;
  slice8 ((crc lxor mask) land mask) s ~pos ~len lxor mask

let substring ?(crc = empty) s ~pos ~len =
  check_range "Checksum.substring" s ~pos ~len;
  let c = (crc lxor mask) land mask in
  let c =
    if accelerated && len >= 64 then
      let bulk = len land lnot 15 in
      slice8 (fold c s pos bulk) s ~pos:(pos + bulk) ~len:(len - bulk)
    else slice8 c s ~pos ~len
  in
  c lxor mask

let string ?crc s = substring ?crc s ~pos:0 ~len:(String.length s)

let bytes ?crc b ~pos ~len =
  substring ?crc (Bytes.unsafe_to_string b) ~pos ~len

let to_hex crc = Printf.sprintf "%08x" (crc land mask)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 && v <= mask -> Some v
    | _ -> None
