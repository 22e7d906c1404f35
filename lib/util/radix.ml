let bits = 8
let digits = 1 lsl bits

let order keys =
  let n = Array.length keys in
  let src = ref (Array.init n Fun.id) in
  if n > 1 then begin
    let lo = ref keys.(0) and hi = ref keys.(0) in
    for i = 1 to n - 1 do
      let k = keys.(i) in
      if k < !lo then lo := k;
      if k > !hi then hi := k
    done;
    let lo = !lo in
    (* [k - lo] read as an unsigned word is exact, even where [hi - lo]
       overflows into the sign bit; [lsr] reads it so. *)
    let span = !hi - lo in
    let dst = ref (Array.make n 0) in
    let start = Array.make (digits + 1) 0 in
    let shift = ref 0 in
    while !shift < Sys.int_size && span lsr !shift <> 0 do
      let sh = !shift and s = !src and d = !dst in
      Array.fill start 0 (digits + 1) 0;
      for i = 0 to n - 1 do
        let g = ((keys.(i) - lo) lsr sh) land (digits - 1) in
        start.(g + 1) <- start.(g + 1) + 1
      done;
      for g = 1 to digits do
        start.(g) <- start.(g) + start.(g - 1)
      done;
      for i = 0 to n - 1 do
        let id = s.(i) in
        let g = ((keys.(id) - lo) lsr sh) land (digits - 1) in
        d.(start.(g)) <- id;
        start.(g) <- start.(g) + 1
      done;
      src := d;
      dst := s;
      shift := sh + bits
    done
  end;
  !src
