(** Nested span timers: wall time plus allocation deltas per region.

    Spans are {b disabled by default}; when disabled, {!with_} is a bool
    check and a call, so instrumented hot paths stay benchmark-neutral.
    When enabled (e.g. by [trgplace --metrics-out]), each completed span
    records its name, nesting path, wall-clock duration and the words it
    allocated ({!allocated_words} deltas), in completion order — an
    inner span always precedes its parent, so the record list is a
    deterministic post-order traversal of the dynamic span tree. *)

type outcome = Finished | Failed

val allocated_words : unit -> float
(** The allocation meter of spans and of the perf ledger: words
    allocated by this process so far (minor + major - promoted), read
    after a minor collection so that no region's words are counted in a
    later one.  A span's [alloc_words] is the difference of two reads,
    both taken outside its timed window. *)

type record = {
  name : string;
  path : string;  (** slash-joined names of enclosing spans + [name] *)
  depth : int;  (** 0 for a root span *)
  start_s : float;
      (** seconds between the process-wide span epoch (module load) and
          the span's start — all records share one time axis *)
  wall_s : float;  (** elapsed wall seconds, clamped to [>= 0.] *)
  alloc_words : float;
      (** words allocated during the span (minor + major - promoted),
          clamped to [>= 0.] *)
  outcome : outcome;  (** [Failed] when the body raised *)
  lane : int option;
      (** Worker lane that ran the span: [None] (rendered as lane 0) for
          spans recorded in the main process, [Some n] for spans absorbed
          from pool worker [n] (see {!inject}).  Lane numbers count
          worker spawns, so a respawned worker gets a fresh lane. *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span.  If [f] raises, the span
    records [Failed] and the exception propagates unchanged. *)

val records : unit -> record list
(** Completed spans in completion order. *)

val reset : unit -> unit
(** Forgets all completed spans (open spans are unaffected). *)

val inject : ?lane:int -> record list -> unit
(** Appends already-completed records (in the given order) after the
    current ones.  The evaluation worker pool uses this to graft spans
    recorded in forked workers into the parent's record list; [start_s]
    values remain comparable because forked children inherit the parent's
    span epoch.  [?lane] stamps every injected record with the worker
    lane that produced it (overriding any lane recorded inside the
    worker — the absorbing pool is authoritative). *)

val to_json : unit -> Json.t
(** [List] of span objects in completion order: [name], [path], [depth],
    [start_s], [wall_s], [alloc_words], [outcome] ("ok" / "failed"), and
    [lane] when the span came from a pool worker. *)

val chrome_of_spans : ?pid:int -> Json.t list -> Json.t
(** Converts a manifest's span list (the objects of {!to_json}) to the
    Chrome trace-event format — an [{"traceEvents": [...]}] envelope of
    complete ("ph":"X") events with microsecond timestamps — loadable in
    chrome://tracing and Perfetto.  The [pid] defaults to the exporting
    process's real pid; each span's [tid] is its worker lane (0 = main
    process), with metadata events naming the lanes, so sharded runs
    render as parallel timelines.  Spans without [start_s] (manifests
    older than schema 2) are laid end to end as an approximation. *)

val to_chrome : unit -> Json.t
(** {!chrome_of_spans} over the current completed records. *)
