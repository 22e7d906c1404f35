(** Temporal relationship graph construction (Section 3).

    A TRG's edge weight [W(e_{p,q})] counts how often [q] was referenced
    between two consecutive references to [p] (or vice versa) while [p] was
    still resident in the ordered set Q — i.e. how much the execution
    alternates between [p] and [q] within a cache-sized window, regardless
    of their call-graph relationship.

    Our placement algorithm uses two TRGs built from the same trace:
    TRG_select over whole procedures (drives merge order) and TRG_place
    over fixed-size procedure chunks (drives cache-relative alignment). *)

type built = {
  graph : Graph.t;
  qstats : Qset.stats;  (** Q population statistics (Table 1's last column) *)
}

val default_chunk_size : int
(** 256 bytes — the value the paper found to work well. *)

(** An incremental builder: the Q algorithm over an id stream fed one
    reference at a time, with integer edge counts ({!Graph.Counts}).
    Neither {!Stream.reference} nor {!Stream.finish} touches the [trg/*]
    metrics; {!build_stream} flushes them. *)
module Stream : sig
  type t

  val create : ?hint:int -> capacity_bytes:int -> size_of:(int -> int) -> unit -> t
  (** [hint] (default 1024) sizes the graph {!finish} builds. *)

  val reference : t -> int -> unit
  (** The next id of the stream; a repeat of the previous id is
      collapsed.  Allocates only when Q's arrays or the count table
      grow. *)

  val finish : t -> built
  (** The TRG of the stream so far, built from the counts; the stream may
      keep being fed afterwards. *)
end

val build_stream :
  capacity_bytes:int ->
  size_of:(int -> int) ->
  ((int -> unit) -> unit) ->
  built
(** [build_stream ~capacity_bytes ~size_of feed] runs the Q algorithm over
    the id stream produced by [feed emit].  Consecutive duplicate ids are
    collapsed.  This is the primitive the trace-level builders wrap; it is
    exposed for tests and for custom granularities.  It is {!Stream} plus
    one flush of the [trg/*] metrics. *)

val build_select :
  ?keep:(int -> bool) ->
  capacity_bytes:int ->
  Trg_program.Program.t ->
  Trg_trace.Trace.t ->
  built
(** Procedure-granularity TRG.  [keep] filters the procedures fed to Q
    (used to restrict to popular procedures, after Hashemi et al.);
    default keeps all. *)

val iter_chunks :
  ?keep:(int -> bool) ->
  Trg_program.Chunk.t ->
  Trg_trace.Trace.t ->
  (int -> unit) ->
  unit
(** [iter_chunks ?keep chunks trace f] calls [f] on the id of every chunk
    each event touches, in trace order, skipping events whose procedure
    fails [keep] (by default none is skipped).  The chunk-granularity id
    stream every chunk profile is built from; it reads packed words and
    allocates nothing. *)

val build_place :
  ?keep:(int -> bool) ->
  capacity_bytes:int ->
  Trg_program.Chunk.t ->
  Trg_trace.Trace.t ->
  built
(** Chunk-granularity TRG over global chunk ids.  [keep] filters on the
    {e owning procedure} of each chunk. *)
