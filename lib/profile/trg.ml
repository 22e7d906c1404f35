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

  (* The consecutive-repeat filter, then Q's counting reference
     ({!Qset.count}), which the release build inlines with the count
     table's probe: one loop with no call on its hit path. *)
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

(* The trace walks.  Each walk shape has one loop, with its streams,
   the per-procedure arrays and the chunk geometry bound before it
   starts: both streams ({!build}, {!Both}), the select stream alone
   ({!build_select}, and the rest of the trace after a place failure),
   and a chunk callback ({!iter_chunks}).  Each procedure's [keep]
   verdict, size and first chunk are looked up at its first event and
   cached, so an event costs a range check and a shift (a division when
   the chunk size is not a power of two).  An event that fails the range
   check, or names a procedure the program lacks, takes [Chunk.iter_range],
   which raises what it always has.  An event goes to the place side
   first, so that when it fails, whichever side failed, the select side
   can restart at that event. *)
module Walk = struct
  type t = {
    keep : int -> bool;
    limit : int array;
        (* [unseen], [skipped], or a kept procedure's size (0 when there
           are no chunks) *)
    chunks : Chunk.t option; (* the place side's chunks, if it has one *)
    first : int array; (* a resolved procedure's first chunk *)
    size : int; (* the chunk size *)
    shift : int; (* log2 size, or -1 when size is not a power of two *)
  }

  let unseen = -2

  let skipped = -1

  let create ?(keep = fun _ -> true) ~n_procs chunks =
    let size = match chunks with Some c -> Chunk.chunk_size c | None -> 1 in
    let rec log2 k = if k = 1 then 0 else 1 + log2 (k lsr 1) in
    {
      keep;
      limit = Array.make n_procs unseen;
      chunks;
      first = Array.make (if chunks = None then 0 else n_procs) 0;
      size;
      shift = (if size land (size - 1) = 0 then log2 size else -1);
    }

  let resolve w p =
    let l =
      if not (w.keep p) then skipped
      else
        match w.chunks with
        | Some chunks ->
          w.first.(p) <- Chunk.first chunks p;
          Chunk.proc_size chunks p
        | None -> 0
    in
    w.limit.(p) <- l;
    l

  (* A procedure's cached limit; [p] must be below [Array.length limit]. *)
  let[@inline] cached w limit p =
    let l = Array.unsafe_get limit p in
    if l = unseen then resolve w p else l

  let[@inline] chunk ~size ~shift offset =
    if shift >= 0 then offset lsr shift else offset / size

  (* The failure path of every chunked loop: an event out of its
     procedure's range, or of a procedure the program lacks, where
     [iter_range] raises. *)
  let fallback w p word emit =
    match w.chunks with
    | Some chunks ->
      Chunk.iter_range chunks ~proc:p ~offset:(Event.packed_offset word)
        ~len:(Event.packed_len word) emit
    | None -> ()

  (* [fallback] into a place stream.  A function of its own: a closure
     built in [both_event] would keep it from being inlined. *)
  let fallback_place w p word place = fallback w p word (fun c -> Stream.reference place c)

  (* Both streams, one event: its chunks to [place], then its procedure
     to [select].  [limit], [first], [size] and [shift] are [w]'s. *)
  let[@inline] both_event w ~limit ~first ~size ~shift ~select ~place word =
    let p = Event.packed_proc word in
    if p < Array.length limit then begin
      let l = cached w limit p in
      if l >= 0 then begin
        let offset = Event.packed_offset word and len = Event.packed_len word in
        if len > 0 && offset + len <= l then begin
          let base = Array.unsafe_get first p in
          for c = base + chunk ~size ~shift offset
              to base + chunk ~size ~shift (offset + len - 1) do
            Stream.reference place c
          done
        end
        else fallback_place w p word place;
        Stream.reference select p
      end
    end
    else if w.keep p then begin
      fallback_place w p word place;
      Stream.reference select p
    end

  (* The select stream alone, from event [from] to the end. *)
  let select w s trace ~from =
    let limit = w.limit in
    for i = from to Trace.length trace - 1 do
      let p = Event.packed_proc (Trace.unsafe_packed trace i) in
      if p < Array.length limit then begin
        if cached w limit p >= 0 then Stream.reference s p
      end
      else if w.keep p then Stream.reference s p
    done

  (* If an event fails, a walk of the select side alone would still
     have read the whole trace and flushed its TRG's metrics: the select
     side reads the rest, from the failing event, and flushes before the
     failure goes on.  When the select side is what failed, it fails
     again at that event and flushes nothing. *)
  let both w ~select:s ~place trace =
    let limit = w.limit and first = w.first and size = w.size and shift = w.shift in
    let n = Trace.length trace in
    let i = ref 0 in
    match
      while !i < n do
        both_event w ~limit ~first ~size ~shift ~select:s ~place
          (Trace.unsafe_packed trace !i);
        incr i
      done
    with
    | () -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      select w s trace ~from:!i;
      ignore (flush s : built);
      Printexc.raise_with_backtrace e bt

  (* A chunk callback. *)
  let each w trace f =
    let limit = w.limit and first = w.first and size = w.size and shift = w.shift in
    for i = 0 to Trace.length trace - 1 do
      let word = Trace.unsafe_packed trace i in
      let p = Event.packed_proc word in
      if p < Array.length limit then begin
        let l = cached w limit p in
        if l >= 0 then begin
          let offset = Event.packed_offset word and len = Event.packed_len word in
          if len > 0 && offset + len <= l then begin
            let base = Array.unsafe_get first p in
            for c = base + chunk ~size ~shift offset
                to base + chunk ~size ~shift (offset + len - 1) do
              f c
            done
          end
          else fallback w p word f
        end
      end
      else if w.keep p then fallback w p word f
    done
end

let build ?keep ~capacity_bytes program chunks trace =
  let select = select_stream ~capacity_bytes program
  and place = place_stream ~capacity_bytes chunks in
  Walk.both
    (Walk.create ?keep ~n_procs:(Chunk.n_procs chunks) (Some chunks))
    ~select ~place trace;
  let select = flush select in
  (select, flush place)

let build_select ?keep ~capacity_bytes program trace =
  let select = select_stream ~capacity_bytes program in
  Walk.select (Walk.create ?keep ~n_procs:(Program.n_procs program) None) select trace
    ~from:0;
  flush select

let iter_chunks ?keep chunks trace f =
  Walk.each (Walk.create ?keep ~n_procs:(Chunk.n_procs chunks) (Some chunks)) trace f

module Both = struct
  type t = { walk : Walk.t; select : Stream.t; place : Stream.t }

  let create ~capacity_bytes program chunks =
    {
      walk = Walk.create ~n_procs:(Chunk.n_procs chunks) (Some chunks);
      select = select_stream ~capacity_bytes program;
      place = place_stream ~capacity_bytes chunks;
    }

  let event t word =
    let w = t.walk in
    Walk.both_event w ~limit:w.Walk.limit ~first:w.Walk.first ~size:w.Walk.size
      ~shift:w.Walk.shift ~select:t.select ~place:t.place word

  let finish t = (Stream.finish t.select, Stream.finish t.place)
end
