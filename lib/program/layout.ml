type t = { addr : int array; span : int }

let round_up x align = if align <= 1 then x else (x + align - 1) / align * align

let validate program addr =
  let n = Array.length addr in
  if n <> Program.n_procs program then
    invalid_arg "Layout.of_addresses: address count does not match program";
  (* By address, ties (which always overlap) by the lower id. *)
  let order = Trg_util.Radix.order addr in
  Array.iteri
    (fun i p ->
      if addr.(p) < 0 then
        invalid_arg (Printf.sprintf "Layout: negative address for proc %d" p);
      if i > 0 then begin
        let prev = order.(i - 1) in
        let prev_end = addr.(prev) + Program.size program prev in
        if addr.(p) < prev_end then
          invalid_arg
            (Printf.sprintf "Layout: procs %d and %d overlap (%d < %d)" prev p
               addr.(p) prev_end)
      end)
    order;
  match Array.length order with
  | 0 -> 0
  | n ->
    let last = order.(n - 1) in
    addr.(last) + Program.size program last

let of_addresses program addr =
  let addr = Array.copy addr in
  let span = validate program addr in
  { addr; span }

let address t p = t.addr.(p)

let addresses t = Array.copy t.addr

let n_procs t = Array.length t.addr

let span t = t.span

let order t = Trg_util.Radix.order t.addr

let gap_bytes t program =
  let used = Program.total_size program in
  t.span - used

let is_permutation n order =
  Array.length order = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun p ->
      if p < 0 || p >= n || seen.(p) then false
      else begin
        seen.(p) <- true;
        true
      end)
    order

let contiguous_with ?(align = 4) ~pad program order =
  let n = Program.n_procs program in
  if not (is_permutation n order) then
    invalid_arg "Layout.contiguous: order is not a permutation of proc ids";
  let addr = Array.make n 0 in
  let cursor = ref 0 in
  Array.iter
    (fun p ->
      cursor := round_up !cursor align;
      addr.(p) <- !cursor;
      cursor := !cursor + Program.size program p + pad)
    order;
  of_addresses program addr

let contiguous ?align program order = contiguous_with ?align ~pad:0 program order

let padded ?align ~pad program order =
  if pad < 0 then invalid_arg "Layout.padded: negative padding";
  contiguous_with ?align ~pad program order

let default ?align program =
  contiguous ?align program (Array.init (Program.n_procs program) (fun i -> i))

let random rng ?align program =
  let order = Array.init (Program.n_procs program) (fun i -> i) in
  Trg_util.Prng.shuffle rng order;
  contiguous ?align program order

let cache_line_of t ~line_size ~n_lines p = t.addr.(p) / line_size mod n_lines

let line_align ~line_size ~n_sets program t =
  if line_size <= 0 || n_sets <= 0 then
    invalid_arg "Layout.line_align: line_size and n_sets must be positive";
  let n = Array.length t.addr in
  let addr = Array.make n 0 in
  let cursor = ref 0 in
  Array.iter
    (fun p ->
      let set = t.addr.(p) / line_size mod n_sets in
      let cl = (!cursor + line_size - 1) / line_size in
      let k = ((set - cl) mod n_sets + n_sets) mod n_sets in
      addr.(p) <- (cl + k) * line_size;
      cursor := addr.(p) + Program.size program p)
    (order t);
  of_addresses program addr

(* Digest of the placement itself (proc -> address), independent of the
   rendering: the claim a decision journal makes about the layout its
   merge sequence produced, and what [trgplace replay] re-checks. *)
let digest t =
  let b = Buffer.create 256 in
  Array.iteri
    (fun p a ->
      Buffer.add_string b (string_of_int p);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int a);
      Buffer.add_char b '\n')
    t.addr;
  Trg_util.Checksum.string (Buffer.contents b)

let pp program ppf t =
  Array.iter
    (fun p ->
      Format.fprintf ppf "0x%06x  %-20s %6d bytes@." t.addr.(p)
        (Program.name program p) (Program.size program p))
    (order t)
