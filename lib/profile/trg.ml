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

let iter_chunks ?(keep = fun _ -> true) chunks trace f =
  for i = 0 to Trace.length trace - 1 do
    let w = Trace.packed trace i in
    let proc = Event.packed_proc w in
    if keep proc then
      Chunk.iter_range chunks ~proc ~offset:(Event.packed_offset w)
        ~len:(Event.packed_len w) f
  done

let build_place ?keep ~capacity_bytes chunks trace =
  build_stream ~capacity_bytes ~size_of:(Chunk.size_of chunks)
    (iter_chunks ?keep chunks trace)
