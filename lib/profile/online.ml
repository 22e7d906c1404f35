module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Event = Trg_trace.Event
module Tstats = Trg_trace.Tstats

type t = {
  chunks : Chunk.t;
  select : Trg.Stream.t;
  place : Trg.Stream.t;
  place_chunk : int -> unit;
  enter_counts : int array;
  ref_counts : int array;
  mutable n_events : int;
  mutable n_transitions : int;
  mutable bytes : int;
}

let create ~capacity_bytes program chunks =
  let n = Program.n_procs program in
  let place =
    Trg.Stream.create ~hint:4096 ~capacity_bytes ~size_of:(Chunk.size_of chunks) ()
  in
  {
    chunks;
    select =
      Trg.Stream.create ~hint:1024 ~capacity_bytes ~size_of:(Program.size program) ();
    place;
    place_chunk = Trg.Stream.reference place;
    enter_counts = Array.make n 0;
    ref_counts = Array.make n 0;
    n_events = 0;
    n_transitions = 0;
    bytes = 0;
  }

let observe t (e : Event.t) =
  t.n_events <- t.n_events + 1;
  t.ref_counts.(e.proc) <- t.ref_counts.(e.proc) + 1;
  t.bytes <- t.bytes + e.len;
  (match e.kind with
  | Event.Enter ->
    t.enter_counts.(e.proc) <- t.enter_counts.(e.proc) + 1;
    t.n_transitions <- t.n_transitions + 1
  | Event.Resume -> t.n_transitions <- t.n_transitions + 1
  | Event.Run -> ());
  (* The same two streams the offline builders run, fed as events arrive. *)
  Trg.Stream.reference t.select e.proc;
  Chunk.iter_range t.chunks ~proc:e.proc ~offset:e.offset ~len:e.len t.place_chunk

let events_seen t = t.n_events

type snapshot = { tstats : Tstats.t; select : Trg.built; place : Trg.built }

let finish t =
  let n_procs_referenced =
    Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 t.ref_counts
  in
  {
    tstats =
      {
        Tstats.n_events = t.n_events;
        n_transitions = t.n_transitions;
        n_procs_referenced;
        enter_counts = Array.copy t.enter_counts;
        ref_counts = Array.copy t.ref_counts;
        bytes_executed = t.bytes;
      };
    select = Trg.Stream.finish t.select;
    place = Trg.Stream.finish t.place;
  }
