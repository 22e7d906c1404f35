(** Structured run manifests: one JSON document per run.

    A manifest captures what a run was (command, argv, resolved options),
    what it did (counters, gauges, histograms, completed spans, optional
    miss-attribution summary) and how it ended (status, exit code,
    GC/heap statistics), so perf trajectories can be compared
    machine-to-machine and commit-to-commit — mechanically, via
    {!diff}. *)

val schema : string
(** ["trgplace-manifest/3"]; bumped on incompatible layout changes.
    Version 2 added span [start_s] fields and the optional ["explain"]
    member; version 3 adds the optional ["journal"] member referencing a
    saved merge-decision journal ({!Journal.schema}). *)

val v2_schema : string
(** ["trgplace-manifest/2"] — still accepted by {!validate} and
    {!diff}. *)

val v1_schema : string
(** ["trgplace-manifest/1"] — still accepted by {!validate} and
    {!diff}. *)

type status = Ok | Partial | Failed

val status_to_string : status -> string
(** ["ok"], ["partial-failure"], ["failed"]. *)

val build :
  command:string ->
  ?argv:string list ->
  ?config:(string * Json.t) list ->
  ?explain:Json.t ->
  ?journal:Json.t ->
  status:status ->
  exit_code:int ->
  unit ->
  Json.t
(** Snapshots the metrics registry, completed spans and [Gc.quick_stat]
    (including [top_heap_words], the peak major-heap size) at call time.
    [explain], when given, embeds a miss-attribution classification
    summary (see {!Trg_eval.Explain}) as the ["explain"] member;
    [journal] embeds a pointer to a saved merge-decision journal
    (path, algorithm, source, engine, step count, layout CRC) as the
    ["journal"] member. *)

val write : string -> Json.t -> unit
(** Pretty-printed JSON, written atomically (temp file + rename) so a
    crash mid-write never leaves a torn manifest.
    @raise Sys_error on I/O failure. *)

val load : string -> (Json.t, string) result

val validate : Json.t -> (unit, string) result
(** Structural check used by [trgplace stats]: schema marker (v1, v2 or
    v3) plus the presence and types of the required top-level members;
    the optional ["explain"] and ["journal"] members must be objects
    when present. *)

(** {2 Regression diffing} — the engine behind [trgplace compare]. *)

type drift = {
  metric : string;  (** e.g. ["counters/sim/misses"] *)
  base : float option;  (** [None] = absent from the baseline manifest *)
  current : float option;  (** [None] = absent from the current manifest *)
  rel : float;
      (** relative change [|current - base| / max 1 |base|];
          [infinity] when the metric exists on only one side *)
}

val selected : only:string list -> string -> bool
(** The [--only] rule of [compare] and [stats]: [only] is empty, or one of
    its prefixes starts the ["kind/name"] metric or the name after the kind. *)

val diff : ?tolerance:float -> Json.t -> Json.t -> drift list
(** [diff ~tolerance base current] compares the {e deterministic} metric
    surface of two manifests — counters, gauges and histogram totals —
    and returns every metric whose relative change exceeds [tolerance]
    (default 0) or that is present on one side only, sorted by name.
    Wall-clock spans and GC statistics are machine noise and are never
    compared.  An empty list means no drift. *)
