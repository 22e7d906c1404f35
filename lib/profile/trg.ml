module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Trace = Trg_trace.Trace
module Event = Trg_trace.Event

type built = { graph : Graph.t; qstats : Qset.stats }

let default_chunk_size = 256

(* Telemetry: builder work volumes, flushed once per TRG from local
   accumulators so the per-event path carries no registry traffic. *)
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
  }

  let create ?(hint = 1024) ~capacity_bytes ~size_of () =
    {
      q = Qset.create ~capacity_bytes ~size_of;
      counts = Graph.Counts.create ~hint ();
      last = -1;
      refs = 0;
      edge_incrs = 0;
    }

  (* Q counts the edges itself ({!Qset.count}): no call per increment. *)
  let[@inline] reference s p =
    if p <> s.last then begin
      s.last <- p;
      s.refs <- s.refs + 1;
      s.edge_incrs <- s.edge_incrs + Qset.count s.q p s.counts
    end

  let finish s = { graph = Graph.Counts.to_graph s.counts; qstats = Qset.stats s.q }
end

(* A stream's TRG and the one flush of the [trg/*] metrics that goes
   with it. *)
let flush s =
  let built = Stream.finish s in
  Trg_obs.Metrics.incr m_builds;
  Trg_obs.Metrics.add m_refs s.Stream.refs;
  Trg_obs.Metrics.add m_edge_incrs s.Stream.edge_incrs;
  Trg_obs.Metrics.add m_qsteps built.qstats.Qset.steps;
  Trg_obs.Metrics.max_gauge g_qmax (float_of_int built.qstats.Qset.max_entries);
  built

let build_stream ~capacity_bytes ~size_of feed =
  let s = Stream.create ~capacity_bytes ~size_of () in
  feed (fun p -> Stream.reference s p);
  flush s

let select_stream ~capacity_bytes program =
  Stream.create ~capacity_bytes ~size_of:(Program.size program) ()

let place_stream ~capacity_bytes chunks =
  Stream.create ~hint:4096 ~capacity_bytes ~size_of:(Chunk.size_of chunks) ()

(* One event loop for every TRG and every chunk profile.  Each
   procedure's [keep] verdict, size and first chunk are looked up at its
   first event and cached, so an event costs a range check and a shift
   (a division when the chunk size is not a power of two).  An event
   that fails the range check, or names a procedure the program lacks,
   takes [Chunk.iter_range], which raises what it always has.  An
   event goes to the place side first, so that when it fails, whichever
   side failed, [run] can restart the select side at that event. *)
module Walk = struct
  (* Where the chunk ids go: a place stream, or a callback for the chunk
     profiles that are not TRGs. *)
  type sink = To_stream of Stream.t | To_each of (int -> unit)

  type place = {
    chunks : Chunk.t;
    sink : sink;
    first : int array; (* a resolved procedure's first chunk *)
    size : int;
    shift : int; (* log2 size, or -1 when size is not a power of two *)
  }

  type t = {
    keep : int -> bool;
    limit : int array;
        (* [unseen], [skipped], or a kept procedure's size (0 when there
           is no place side) *)
    place : place option;
    select : Stream.t option;
  }

  let unseen = -2

  let skipped = -1

  let create ?(keep = fun _ -> true) ~n_procs ?select ?place () =
    let place =
      Option.map
        (fun (chunks, sink) ->
          let size = Chunk.chunk_size chunks in
          let rec log2 k = if k = 1 then 0 else 1 + log2 (k lsr 1) in
          {
            chunks;
            sink;
            first = Array.make (Chunk.n_procs chunks) 0;
            size;
            shift = (if size land (size - 1) = 0 then log2 size else -1);
          })
        place
    in
    { keep; limit = Array.make n_procs unseen; place; select }

  let resolve w p =
    let l =
      if not (w.keep p) then skipped
      else
        match w.place with
        | Some pl ->
          pl.first.(p) <- Chunk.first pl.chunks p;
          Chunk.proc_size pl.chunks p
        | None -> 0
    in
    w.limit.(p) <- l;
    l

  let[@inline] emit pl c =
    match pl.sink with To_stream s -> Stream.reference s c | To_each f -> f c

  (* Out of range, or a procedure the program lacks: [iter_range]
     raises. *)
  let fallback pl ~proc ~offset ~len =
    Chunk.iter_range pl.chunks ~proc ~offset ~len (fun c -> emit pl c)

  let[@inline] place_event pl p word l =
    let offset = Event.packed_offset word and len = Event.packed_len word in
    if len > 0 && offset + len <= l then begin
      let last = offset + len - 1 in
      let lo = if pl.shift >= 0 then offset lsr pl.shift else offset / pl.size in
      let hi = if pl.shift >= 0 then last lsr pl.shift else last / pl.size in
      let base = pl.first.(p) in
      for c = base + lo to base + hi do
        emit pl c
      done
    end
    else fallback pl ~proc:p ~offset ~len

  let unknown w ~placing p word =
    if w.keep p then begin
      (match w.place with
      | Some pl when placing ->
        fallback pl ~proc:p ~offset:(Event.packed_offset word)
          ~len:(Event.packed_len word)
      | Some _ | None -> ());
      match w.select with Some s -> Stream.reference s p | None -> ()
    end

  (* [placing] is false only while the select side finishes alone. *)
  let[@inline] step w ~placing word =
    let p = Event.packed_proc word in
    if p < Array.length w.limit then begin
      let l = w.limit.(p) in
      let l = if l = unseen then resolve w p else l in
      if l >= 0 then begin
        (match w.place with
        | Some pl when placing -> place_event pl p word l
        | Some _ | None -> ());
        match w.select with Some s -> Stream.reference s p | None -> ()
      end
    end
    else unknown w ~placing p word

  (* If an event fails, a walk of the select side alone would still
     have read the whole trace and flushed its TRG's metrics: the select
     side reads the rest, from the failing event, and flushes before the
     failure goes on.  When the select side is what failed, it fails
     again at that event and flushes nothing. *)
  let run w trace =
    let n = Trace.length trace in
    let i = ref 0 in
    match
      while !i < n do
        step w ~placing:true (Trace.packed trace !i);
        incr i
      done
    with
    | () -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (match (w.place, w.select) with
      | Some _, Some s ->
        for j = !i to n - 1 do
          step w ~placing:false (Trace.packed trace j)
        done;
        ignore (flush s : built)
      | _ -> ());
      Printexc.raise_with_backtrace e bt
end

let build ?keep ~capacity_bytes program chunks trace =
  let select = select_stream ~capacity_bytes program
  and place = place_stream ~capacity_bytes chunks in
  Walk.run
    (Walk.create ?keep ~n_procs:(Chunk.n_procs chunks) ~select
       ~place:(chunks, Walk.To_stream place) ())
    trace;
  let select = flush select in
  (select, flush place)

let build_select ?keep ~capacity_bytes program trace =
  let select = select_stream ~capacity_bytes program in
  Walk.run (Walk.create ?keep ~n_procs:(Program.n_procs program) ~select ()) trace;
  flush select

let build_place ?keep ~capacity_bytes chunks trace =
  let place = place_stream ~capacity_bytes chunks in
  Walk.run
    (Walk.create ?keep ~n_procs:(Chunk.n_procs chunks)
       ~place:(chunks, Walk.To_stream place) ())
    trace;
  flush place

let iter_chunks ?keep chunks trace f =
  Walk.run
    (Walk.create ?keep ~n_procs:(Chunk.n_procs chunks) ~place:(chunks, Walk.To_each f) ())
    trace

module Both = struct
  type t = { walk : Walk.t; select : Stream.t; place : Stream.t }

  let create ~capacity_bytes program chunks =
    let select = select_stream ~capacity_bytes program
    and place = place_stream ~capacity_bytes chunks in
    {
      walk =
        Walk.create ~n_procs:(Chunk.n_procs chunks) ~select
          ~place:(chunks, Walk.To_stream place) ();
      select;
      place;
    }

  let event t word = Walk.step t.walk ~placing:true word

  let finish t = (Stream.finish t.select, Stream.finish t.place)
end
