(* Slicing-by-8 CRC-32.  The digest lives in the low 32 bits of an int;
   OCaml ints are 63-bit so no overflow handling is needed.

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

let substring ?(crc = empty) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Checksum.substring";
  let t = Lazy.force tables in
  (* A 32-bit register keeps every table index below in range. *)
  let c = ref ((crc lxor mask) land mask) in
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
  !c lxor mask

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
