(** Trace-driven instruction-cache simulation.

    Given a layout (procedure addresses) and a trace (byte ranges executed),
    the simulator probes every cache line the program would fetch, in
    program order, and counts misses.  This is the measurement device behind
    all of the paper's reported miss rates.

    Every simulation also feeds the [sim/*] telemetry counters
    ({!Trg_obs.Metrics}): [sim/simulations], [sim/accesses], [sim/misses]
    and [sim/evictions] from {!simulate}, and [sim/page/accesses] /
    [sim/page/faults] from {!paging}.  Counts are accumulated per run
    after the hot loop, so the instrumentation costs nothing per
    access. *)

type result = {
  accesses : int;  (** number of line references *)
  misses : int;
  evictions : int;  (** misses that displaced a resident line *)
  events : int;  (** number of trace events processed *)
}

val miss_rate : result -> float
(** [misses / accesses]; 0 for an empty trace. *)

val simulate :
  ?policy:Policy.kind ->
  Trg_program.Program.t ->
  Trg_program.Layout.t ->
  Config.t ->
  Trg_trace.Trace.t ->
  result
(** Simulates with a cold cache.  Direct-mapped configurations use a fast
    tag-array path (every policy coincides at one way); associative
    configurations run [policy] (default true LRU) on the
    {!Policy.Probe} engine — proven bit-identical to the naive reference
    models by the policy differential wall.  Both loops read packed
    words ({!Trg_trace.Trace.packed}) and allocate nothing per event.
    @raise Invalid_argument for policy/associativity combinations the
    policy cannot express (Tree-PLRU needs power-of-two ways). *)

val simulate_flat :
  ?policy:Policy.kind ->
  Trg_program.Program.t ->
  Trg_program.Layout.t ->
  Config.t ->
  Trg_trace.Trace.Flat.t ->
  result
(** {!simulate}.  The alias stays because the benchmark harness
    ([trgbench/]), which must not change, calls it. *)

val distinct_lines :
  Trg_program.Program.t ->
  Trg_program.Layout.t ->
  Config.t ->
  Trg_trace.Trace.t ->
  int
(** Number of distinct memory line addresses touched by the trace — the
    compulsory-miss floor for any cache with this line size. *)

type page_result = {
  page_accesses : int;  (** page references (one per event page touched) *)
  page_faults : int;  (** LRU faults with the given number of frames *)
  pages_touched : int;  (** distinct pages referenced *)
}

val paging :
  Trg_program.Program.t ->
  Trg_program.Layout.t ->
  page_size:int ->
  frames:int ->
  Trg_trace.Trace.t ->
  page_result
(** Code-paging behaviour of a layout: every event charges the pages its
    byte range spans against an LRU-managed resident set of [frames]
    physical pages.  Used by the Section 4.3 page-locality experiment. *)
