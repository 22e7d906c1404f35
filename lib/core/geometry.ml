module Program = Trg_program.Program
module Chunk = Trg_program.Chunk

type t = {
  n_sets : int;
  line_size : int;
  owner : int array;
  offset : int -> int;
  bytes : int -> int;
  first : int array;
  lines : int array;
  proc_first : int array;
}

let make ~line_size ~n_sets ~n_blocks ~proc_first ~owner ~offset ~bytes =
  {
    n_sets;
    line_size;
    owner;
    offset;
    bytes;
    first = Array.init n_blocks (fun b -> offset b / line_size mod n_sets);
    lines = Array.init n_blocks (fun b -> min n_sets ((bytes b + line_size - 1) / line_size));
    proc_first;
  }

let of_chunks chunks ~line_size ~n_sets =
  make ~line_size ~n_sets ~n_blocks:(Chunk.total chunks)
    ~proc_first:(Chunk.first_array chunks) ~owner:(Chunk.owner_array chunks)
    ~offset:(fun c -> Chunk.index_in_proc chunks c * Chunk.chunk_size chunks)
    ~bytes:(Chunk.size_of chunks)

let of_procs program ~line_size ~n_sets =
  let n = Program.n_procs program in
  make ~line_size ~n_sets ~n_blocks:n ~proc_first:(Array.init (n + 1) Fun.id)
    ~owner:(Array.init n Fun.id) ~offset:(fun _ -> 0) ~bytes:(Program.size program)

let[@inline] start_set g ~owner_set b = (owner_set + g.first.(b)) mod g.n_sets

let[@inline] placed_start g ~address b = (address + g.offset b) / g.line_size mod g.n_sets

let[@inline] placed_lines g ~address b =
  let a = address + g.offset b in
  min g.n_sets (((a + g.bytes b - 1) / g.line_size) - (a / g.line_size) + 1)

let iter_sets g s l f =
  let wrap = s + l - g.n_sets in
  for x = s to s + l - 1 - max 0 wrap do
    f x
  done;
  for x = 0 to wrap - 1 do
    f x
  done

(* With [a]'s start moved to 0, [b] starts at [d]: its piece before the
   wrap meets [0, la) in [d, min la (d + lb)), its piece after the wrap
   in [0, min la (d + lb - n)). *)
let shared g a la b lb =
  let n = g.n_sets in
  let d = if b >= a then b - a else b - a + n in
  max 0 (min la (d + lb) - d) + max 0 (min la (d + lb - n))

(* Set pairs with [x1 - x2 = t - (l2 - 1)], for [t] from 0 to
   [l1 + l2 - 2], number [min l1 l2 (t + 1) (l1 + l2 - 1 - t)]: a
   trapezoid over the cells from [s1 - s2 - (l2 - 1)] on.  A cell takes
   its [w]s one addition at a time, as a walk over the set pairs would. *)
let correlate g cost ~w s1 l1 s2 l2 =
  let n = g.n_sets in
  let span = l1 + l2 - 1 and short = min l1 l2 in
  let i = ref ((s1 - s2 - (l2 - 1) + (2 * n)) mod n) in
  for t = 0 to span - 1 do
    let c = !i in
    for _ = 1 to min short (min (t + 1) (span - t)) do
      cost.(c) <- cost.(c) +. w
    done;
    i := if c + 1 = n then 0 else c + 1
  done
