(* Entry [i] of the heap is [(prio.(i), seq.(i), payload.(i))]; the
   first [size] slots hold the heap, the rest are spare. *)
type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable payload : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let cap = Int.max 1 capacity in
  {
    prio = Array.make cap 0.;
    seq = Array.make cap 0;
    payload = Array.make cap 0;
    size = 0;
    next_seq = 0;
  }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let cap = 2 * Array.length h.prio in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.prio <- extend h.prio 0.;
  h.seq <- extend h.seq 0;
  h.payload <- extend h.payload 0

(* Larger priority wins; on equal priority the earlier insertion wins so
   the pop order is a deterministic function of the push sequence. *)
let[@inline] precedes (pa : float) (sa : int) pb sb =
  pa > pb || (pa = pb && sa < sb)

(* Both sifts move a hole rather than swapping entries, and write the
   moving entry once, where the hole stops.  Indices stay below [size],
   which never exceeds the arrays' length, so their accesses go
   unchecked. *)
let push h prio x =
  if h.size = Array.length h.prio then grow h;
  let pa = h.prio and sa = h.seq and xa = h.payload in
  let s = h.next_seq in
  h.next_seq <- s + 1;
  let i = ref h.size in
  h.size <- h.size + 1;
  (* The new entry has the largest ordinal so far, so on equal
     priority it never precedes its parent. *)
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    prio > Array.unsafe_get pa p
  do
    let p = (!i - 1) / 2 in
    Array.unsafe_set pa !i (Array.unsafe_get pa p);
    Array.unsafe_set sa !i (Array.unsafe_get sa p);
    Array.unsafe_set xa !i (Array.unsafe_get xa p);
    i := p
  done;
  Array.unsafe_set pa !i prio;
  Array.unsafe_set sa !i s;
  Array.unsafe_set xa !i x

let check_nonempty h what = if h.size = 0 then invalid_arg ("Heap." ^ what ^ ": empty heap")

let max_prio h =
  check_nonempty h "max_prio";
  h.prio.(0)

let max_payload h =
  check_nonempty h "max_payload";
  h.payload.(0)

let drop_max h =
  check_nonempty h "drop_max";
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root. *)
    let pa = h.prio and sa = h.seq and xa = h.payload in
    let prio = Array.unsafe_get pa n
    and s = Array.unsafe_get sa n
    and x = Array.unsafe_get xa n in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && precedes (Array.unsafe_get pa r) (Array.unsafe_get sa r)
                 (Array.unsafe_get pa l) (Array.unsafe_get sa l)
          then r
          else l
        in
        if precedes (Array.unsafe_get pa c) (Array.unsafe_get sa c) prio s then begin
          Array.unsafe_set pa !i (Array.unsafe_get pa c);
          Array.unsafe_set sa !i (Array.unsafe_get sa c);
          Array.unsafe_set xa !i (Array.unsafe_get xa c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set pa !i prio;
    Array.unsafe_set sa !i s;
    Array.unsafe_set xa !i x
  end

let iter_entries h f =
  for i = 0 to h.size - 1 do
    f h.prio.(i) h.seq.(i) h.payload.(i)
  done
