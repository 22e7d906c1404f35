module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Trace = Trg_trace.Trace
module Event = Trg_trace.Event

type built = { graph : Graph.t; qstats : Qset.stats }

let default_chunk_size = 256

(* Telemetry: builder work volumes, flushed once per [build_stream] from
   local accumulators so the per-event path carries no registry traffic. *)
let m_builds = Trg_obs.Metrics.counter "trg/builds"
let m_refs = Trg_obs.Metrics.counter "trg/qset_references"
let m_edge_incrs = Trg_obs.Metrics.counter "trg/edge_increments"
let m_qsteps = Trg_obs.Metrics.counter "trg/qset_steps"
let g_qmax = Trg_obs.Metrics.gauge "trg/qset_max_entries"

module Stream = struct
  type t = {
    q : Qset.t;
    counts : Graph.Counts.t;
    mutable last : int;
    mutable refs : int;
    mutable edge_incrs : int;
    between : int -> unit;
  }

  (* [between] is built once here: Q reports each id seen since the
     previous occurrence of [last], the id being referenced. *)
  let create ?(hint = 1024) ~capacity_bytes ~size_of () =
    let rec s =
      {
        q = Qset.create ~capacity_bytes ~size_of;
        counts = Graph.Counts.create ~hint ();
        last = -1;
        refs = 0;
        edge_incrs = 0;
        between =
          (fun inter ->
            s.edge_incrs <- s.edge_incrs + 1;
            Graph.Counts.add s.counts s.last inter);
      }
    in
    s

  let reference s p =
    if p <> s.last then begin
      s.last <- p;
      s.refs <- s.refs + 1;
      ignore (Qset.reference s.q p ~between:s.between : bool)
    end

  let finish s = { graph = Graph.Counts.to_graph s.counts; qstats = Qset.stats s.q }
end

let build_stream ~capacity_bytes ~size_of feed =
  let s = Stream.create ~capacity_bytes ~size_of () in
  feed (Stream.reference s);
  let built = Stream.finish s in
  Trg_obs.Metrics.incr m_builds;
  Trg_obs.Metrics.add m_refs s.Stream.refs;
  Trg_obs.Metrics.add m_edge_incrs s.Stream.edge_incrs;
  Trg_obs.Metrics.add m_qsteps built.qstats.Qset.steps;
  Trg_obs.Metrics.max_gauge g_qmax (float_of_int built.qstats.Qset.max_entries);
  built

(* Both trace walks read packed words, so no event is materialised. *)
let build_select ?(keep = fun _ -> true) ~capacity_bytes program trace =
  build_stream ~capacity_bytes ~size_of:(Program.size program) (fun emit ->
      for i = 0 to Trace.length trace - 1 do
        let proc = Event.packed_proc (Trace.packed trace i) in
        if keep proc then emit proc
      done)

(* One walk, shared by every chunk profile.  Each procedure's [keep]
   verdict, first chunk and size are looked up at its first event and
   cached, so an event costs a range check and a shift (a division when
   the chunk size is not a power of two).  An event that fails the range
   check, or names a procedure the program lacks, takes
   [Chunk.iter_range], which raises what it always has. *)
let iter_chunks ?(keep = fun _ -> true) chunks trace f =
  let n = Chunk.n_procs chunks in
  let unseen = -2 and skipped = -1 in
  (* [limit.(p)]: [p]'s size once resolved and kept. *)
  let limit = Array.make n unseen and first = Array.make n 0 in
  let resolve p =
    let l = if keep p then Chunk.proc_size chunks p else skipped in
    limit.(p) <- l;
    first.(p) <- Chunk.first chunks p;
    l
  in
  let size = Chunk.chunk_size chunks in
  let rec log2 k = if k = 1 then 0 else 1 + log2 (k lsr 1) in
  let shift = if size land (size - 1) = 0 then log2 size else -1 in
  for i = 0 to Trace.length trace - 1 do
    let w = Trace.packed trace i in
    let proc = Event.packed_proc w in
    let offset = Event.packed_offset w and len = Event.packed_len w in
    if proc >= n then begin
      if keep proc then Chunk.iter_range chunks ~proc ~offset ~len f
    end
    else begin
      let l = limit.(proc) in
      let l = if l = unseen then resolve proc else l in
      if len > 0 && offset + len <= l then begin
        let last = offset + len - 1 in
        let lo = if shift >= 0 then offset lsr shift else offset / size in
        let hi = if shift >= 0 then last lsr shift else last / size in
        let base = first.(proc) in
        for c = base + lo to base + hi do
          f c
        done
      end
      else if l >= 0 then Chunk.iter_range chunks ~proc ~offset ~len f
    end
  done

let build_place ?keep ~capacity_bytes chunks trace =
  build_stream ~capacity_bytes ~size_of:(Chunk.size_of chunks)
    (iter_chunks ?keep chunks trace)
