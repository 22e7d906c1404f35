(* Reference model of [Trg_program.Layout.of_addresses]'s validation: the
   check as the library wrote it before its sort moved onto
   [Trg_util.Radix], ordering procedures by address through a closure
   compare.  Returns the layout's span, or raises [Invalid_argument] with
   the library's message.  Where two procedures share an address the
   order of the pair, and so the message, is the sort's choice.  Tests
   only. *)

module Program = Trg_program.Program

let validate program addr =
  let n = Array.length addr in
  if n <> Program.n_procs program then
    invalid_arg "Layout.of_addresses: address count does not match program";
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare addr.(a) addr.(b)) order;
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
