(** Online (instrumentation-time) profile construction.

    The paper's ongoing work builds the TRGs {e during} program execution
    rather than from a stored trace (Section 4.4).  This module is that
    consumer: feed it events as they happen and it maintains the dynamic
    statistics, the procedure-granularity TRG and the chunk-granularity
    TRG incrementally, never materialising the trace.

    One honest difference from the offline pipeline: popularity is not
    known until the run ends, so the online TRGs contain {e all} executed
    procedures; the placement stage filters to the popular set afterwards.
    The offline builders instead exclude unpopular procedures from Q
    itself, which perturbs edge weights slightly.  The [online] experiment
    measures how much that difference costs. *)

type t

val create :
  capacity_bytes:int -> Trg_program.Program.t -> Trg_program.Chunk.t -> t

val observe : t -> Trg_trace.Event.t -> unit
(** Process one event: updates reference counts, transitions, and both
    TRGs.  O(Q population) per event, as in the paper's instrumented
    runs. *)

val events_seen : t -> int

type snapshot = {
  tstats : Trg_trace.Tstats.t;
  select : Trg.built;  (** unfiltered procedure-granularity TRG *)
  place : Trg.built;  (** unfiltered chunk-granularity TRG *)
}

val finish : t -> snapshot
(** Closes the profile: builds both graphs from the edge counts so far.
    The profiler may keep being fed afterwards; the graphs already
    returned are not shared with it and do not change. *)
