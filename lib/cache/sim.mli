(** Trace-driven instruction-cache simulation.

    Given a layout (procedure addresses) and a trace (byte ranges executed),
    the simulator probes every cache line the program would fetch, in
    program order, and counts misses.  This is the measurement device behind
    all of the paper's reported miss rates.

    Every simulation also feeds the [sim/*] telemetry counters
    ({!Trg_obs.Metrics}): [sim/simulations], [sim/accesses], [sim/misses]
    and [sim/evictions] for the L1 scoreboard; [sim/l2/accesses],
    [sim/l2/misses] and [sim/l2/evictions] for {!simulate_hierarchy}'s
    second level; and [sim/page/accesses] / [sim/page/faults] for
    {!paging}.  All four simulate entry points ({!simulate},
    {!simulate_plru}, {!simulate_hierarchy}, {!paging}) feed this
    namespace.  Counts are accumulated per run after the hot loop, so the
    instrumentation costs nothing per access. *)

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
    configurations default to true-LRU replacement on the historical
    specialised loop, and any other [policy] runs the generic
    {!Policy.Probe} engine — proven bit-identical to the naive reference
    models by the policy differential wall.  All three loops read packed
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

val simulate_plru :
  Trg_program.Program.t ->
  Trg_program.Layout.t ->
  Config.t ->
  Trg_trace.Trace.t ->
  result
(** [simulate ~policy:Policy.Plru]: tree-based pseudo-LRU replacement, the
    policy most real set-associative I-caches implement instead of true
    LRU.  Requires power-of-two associativity.  With [assoc = 1] it
    coincides with {!simulate}. *)

val distinct_lines :
  Trg_program.Program.t ->
  Trg_program.Layout.t ->
  Config.t ->
  Trg_trace.Trace.t ->
  int
(** Number of distinct memory line addresses touched by the trace — the
    compulsory-miss floor for any cache with this line size. *)

type hierarchy_result = {
  l1 : result;
  l2 : result;  (** accesses = L1 misses; misses = fills from memory *)
  amat : float;
      (** average access time per L1 reference with the conventional
          1 / 10 / 100 cycle latencies for L1 hit / L2 hit / memory *)
}

val simulate_hierarchy :
  Trg_program.Program.t ->
  Trg_program.Layout.t ->
  l1:Config.t ->
  l2:Config.t ->
  Trg_trace.Trace.t ->
  hierarchy_result
(** Two-level instruction hierarchy: every L1 line miss probes L2 at L2's
    line granularity ([l2.line_size] must be a multiple of
    [l1.line_size]).  The paper's conclusion points at exactly this
    direction — layout effects on "other layers of the memory
    hierarchy". *)

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
