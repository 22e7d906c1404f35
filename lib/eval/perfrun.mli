(** The measurement suite behind [trgplace perf].

    A small deterministic set of units covering the pipeline's cost
    centres — benchmark preparation, loading the training trace from a
    v3 file, GBSC profiling, the placement algorithms (GBSC under both
    cost engines), the trace simulator at 8 KB direct-mapped and 4-way,
    miss attribution at the paper's point, the [skylake] hierarchy, one
    worker-pool round-trip —
    plus GBSC under both engines on the pair-dense [vortex] (unless it
    is one of the benches, which times all of its units), each run
    [reps] times.  {!measure} reduces the
    repetitions to median + MAD per unit and captures the deterministic
    [cost/*], [merge/*], [pool/*] and [sim/*] counters of the first
    repetition into a {!Trg_obs.Perf.record} ready for the ledger.

    Determinism note: {!measure} calls [Trg_obs.Metrics.clear] so the
    captured counters describe exactly one repetition.  With profiling
    off they depend only on the unit set — not on [jobs], wall clock or
    machine — which is what lets the CI gate hold them exactly. *)

val default_benches : string list
(** [["small"]]. *)

val counter_prefixes : string list
(** The counter namespaces recorded per session:
    [["cost/"; "merge/"; "pool/"; "sim/"]]. *)

val slow_env : string
(** ["TRGPLACE_PERF_SLOW"].  When set to ["<seconds>"] every unit is
    slowed by that much; ["<substring>:<seconds>"] slows only units
    whose name contains the substring.  The hook exists so the
    regression gate's failure path is testable end to end (CI slows a
    hot path on purpose and expects exit 1). *)

val unit_names :
  ?jobs:int ->
  ?benches:string list ->
  ?policy:Trg_cache.Policy.kind ->
  unit ->
  string list
(** The unit names {!measure} would produce, e.g. ["small/gbsc-incr"],
    ["vortex/gbsc-full"], ["pool/roundtrip"]. *)

val allocated_words : unit -> float
(** The ledger's allocation meter, {!Trg_obs.Span.allocated_words}:
    words allocated by this process so far, read after a minor
    collection so that no unit's words are counted in a later one.
    {!measure} takes each unit's [alloc_w] as the difference of two
    reads. *)

val measure :
  ?reps:int ->
  ?jobs:int ->
  ?benches:string list ->
  ?policy:Trg_cache.Policy.kind ->
  rev:string ->
  time_s:float ->
  unit ->
  Trg_obs.Perf.record
(** Run every unit [reps] (default 5) times and reduce to a ledger
    record.  [jobs] (default 2) sizes the pool round-trip unit only —
    the recorded counters are jobs-invariant.  [policy] (default
    {!Trg_cache.Policy.Lru}) is the replacement policy the preparation
    and simulation units run under; a non-default policy changes the
    record's [config_crc], so differently-configured sessions never gate
    against each other.  [rev] and [time_s] are stored verbatim.
    @raise Invalid_argument if [reps < 1]. *)
