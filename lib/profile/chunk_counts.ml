module Chunk = Trg_program.Chunk

let compute chunks trace =
  let counts = Array.make (max 1 (Chunk.total chunks)) 0 in
  Trg.iter_chunks chunks trace (fun c -> counts.(c) <- counts.(c) + 1);
  counts
