type t = {
  chunk_size : int;
  first : int array; (* first.(p) = global id of chunk 0 of proc p *)
  owner : int array; (* owner.(c) = proc of global chunk c *)
  sizes : int array; (* proc sizes, to compute last-chunk remainders *)
  total : int;
}

let make ~chunk_size program =
  if chunk_size <= 0 then invalid_arg "Chunk.make: chunk_size must be positive";
  let n = Program.n_procs program in
  let first = Array.make (n + 1) 0 in
  for p = 0 to n - 1 do
    let chunks = (Program.size program p + chunk_size - 1) / chunk_size in
    first.(p + 1) <- first.(p) + chunks
  done;
  let total = first.(n) in
  let owner = Array.make (max total 1) 0 in
  for p = 0 to n - 1 do
    for c = first.(p) to first.(p + 1) - 1 do
      owner.(c) <- p
    done
  done;
  let sizes = Array.init n (Program.size program) in
  { chunk_size; first; owner; sizes; total }

let chunk_size t = t.chunk_size

let total t = t.total

let n_chunks t p = t.first.(p + 1) - t.first.(p)

let n_procs t = Array.length t.sizes

let proc_size t p = t.sizes.(p)

let first t p = t.first.(p)

let first_array t = t.first

let owner_array t = t.owner

let of_offset t ~proc ~offset =
  if offset < 0 || offset >= t.sizes.(proc) then
    invalid_arg
      (Printf.sprintf "Chunk.of_offset: offset %d out of range for proc %d" offset proc);
  t.first.(proc) + (offset / t.chunk_size)

let owner t c = t.owner.(c)

let index_in_proc t c = c - t.first.(t.owner.(c))

let size_of t c =
  let p = t.owner.(c) in
  let idx = c - t.first.(p) in
  let start = idx * t.chunk_size in
  min t.chunk_size (t.sizes.(p) - start)

let iter_range t ~proc ~offset ~len f =
  if len < 0 then invalid_arg "Chunk.iter_range: negative length";
  if len > 0 then begin
    let lo = of_offset t ~proc ~offset in
    let hi = of_offset t ~proc ~offset:(offset + len - 1) in
    for c = lo to hi do
      f c
    done
  end
