(** Temporal relationship graph construction (Section 3).

    A TRG's edge weight [W(e_{p,q})] counts how often [q] was referenced
    between two consecutive references to [p] (or vice versa) while [p] was
    still resident in the ordered set Q — i.e. how much the execution
    alternates between [p] and [q] within a cache-sized window, regardless
    of their call-graph relationship.

    Our placement algorithm uses two TRGs built from the same trace:
    TRG_select over whole procedures (drives merge order) and TRG_place
    over fixed-size procedure chunks (drives cache-relative alignment).
    {!build} makes both in one walk over the trace. *)

type built = {
  graph : Graph.t;
  qstats : Qset.stats;  (** Q population statistics (Table 1's last column) *)
}

val default_chunk_size : int
(** 256 bytes — the value the paper found to work well. *)

val build_stream :
  capacity_bytes:int ->
  size_of:(int -> int) ->
  ((int -> unit) -> unit) ->
  built
(** [build_stream ~capacity_bytes ~size_of feed] runs the Q algorithm over
    the id stream produced by [feed emit].  Consecutive duplicate ids are
    collapsed.  Exposed for tests and for custom granularities; the
    trace-level builders below do not call [emit] per id.  Flushes the
    [trg/*] metrics once. *)

val build :
  ?keep:(int -> bool) ->
  capacity_bytes:int ->
  Trg_program.Program.t ->
  Trg_program.Chunk.t ->
  Trg_trace.Trace.t ->
  built * built
(** [build ?keep ~capacity_bytes program chunks trace] is
    [(build_select ?keep ~capacity_bytes program trace,
      build_place ?keep ~capacity_bytes chunks trace)] from one walk over
    the trace: each event goes to the chunk-granularity stream and then
    to the procedure-granularity one.  Each stream has its own Q and
    count table, so the interleaving changes neither TRG, and each
    stream's Q counts its edges itself ({!Qset.count}).  The [trg/*]
    metrics are flushed once per TRG.  [chunks] must be [program]'s.

    It fails as the two builders would, in that order: when an event
    fails the place stream, the select stream still reads the rest of
    the trace and flushes its metrics, and then the place stream's
    exception is raised, unless the select stream raised its own. *)

val build_select :
  ?keep:(int -> bool) ->
  capacity_bytes:int ->
  Trg_program.Program.t ->
  Trg_trace.Trace.t ->
  built
(** Procedure-granularity TRG.  [keep] filters the procedures fed to Q
    (used to restrict to popular procedures, after Hashemi et al.);
    default keeps all.  [keep] is called once per procedure, at its
    first event, so it must be pure. *)

val build_place :
  ?keep:(int -> bool) ->
  capacity_bytes:int ->
  Trg_program.Chunk.t ->
  Trg_trace.Trace.t ->
  built
(** Chunk-granularity TRG over global chunk ids, fed the stream of
    {!iter_chunks}.  [keep] filters on the {e owning procedure} of each
    chunk. *)

val iter_chunks :
  ?keep:(int -> bool) ->
  Trg_program.Chunk.t ->
  Trg_trace.Trace.t ->
  (int -> unit) ->
  unit
(** [iter_chunks ?keep chunks trace f] calls [f] on the id of every chunk
    each event touches, in trace order, skipping events whose procedure
    fails [keep] (by default none is skipped).  The chunk-granularity id
    stream every chunk profile is built from, walked by the same loop as
    the TRG builders.  It reads packed words and calls [keep] once per
    procedure, at its first event, so [keep] must be pure.  An event
    outside its procedure, or of a procedure the program lacks, raises
    what {!Trg_program.Chunk.iter_range} raises. *)

(** Both TRGs of an event stream fed one event at a time: the loop of
    {!build} with every procedure kept, for online profiling.  Nothing
    here touches the [trg/*] metrics. *)
module Both : sig
  type t

  val create : capacity_bytes:int -> Trg_program.Program.t -> Trg_program.Chunk.t -> t

  val event : t -> int -> unit
  (** The next event, packed ({!Trg_trace.Event.pack}).  Allocates only
      when Q's arrays or a count table grow.  Raises as {!build} does on
      an event outside its procedure or of a procedure the program
      lacks. *)

  val finish : t -> built * built
  (** The select and place TRGs of the events so far, frozen from the
      counts ({!Graph.Counts.to_graph}); [t] may keep being fed
      afterwards without changing them. *)
end
