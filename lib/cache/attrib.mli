(** Miss-attribution mode of the cache simulator.

    The scoreboard simulator ({!Sim}) says {e how many} misses a layout
    costs; this module says {e why}.  Alongside the real cache (a
    {!Policy.Probe}) it runs a fully-associative LRU shadow cache of equal
    capacity ({!Policy.Full_lru}), which splits every miss three ways (the
    classic 3C model):

    - {b compulsory} — first touch of the line; no cache avoids it;
    - {b capacity} — the shadow cache misses too: the working set simply
      does not fit, regardless of placement;
    - {b conflict} — the shadow cache hits: the line was displaced only
      because of {e where} the layout put it — the misses procedure
      placement exists to eliminate.

    Each conflict miss is further attributed to the (evicting procedure,
    evicted procedure) pair that caused it, accumulating a sparse conflict
    matrix; per-procedure and per-set histograms and a temporal miss
    timeline complete the diagnosis.  The paper's Figure 1 argument — PH
    interleaves siblings that a weighted call graph cannot see — becomes
    directly checkable: under PH the sibling pair dominates the conflict
    matrix, under GBSC it vanishes.

    This is a separate entry point: {!Sim.simulate}'s hot loop is
    untouched, and on identical inputs {!simulate} here reproduces
    {!Sim.simulate}'s counts exactly ([result] field).  Attribution runs
    feed [attrib/*] telemetry counters, not the [sim/*] scoreboard
    namespace. *)

type proc_stats = {
  p_accesses : int;  (** line probes issued by this procedure's events *)
  p_misses : int;
  p_conflicts : int;  (** conflict misses suffered *)
  p_evictions_caused : int;  (** resident lines this procedure displaced *)
}

type t = {
  result : Sim.result;  (** identical to {!Sim.simulate} on the same inputs *)
  compulsory : int;
  capacity : int;
  conflict : int;  (** [compulsory + capacity + conflict = result.misses] *)
  distinct_lines : int;  (** equals [compulsory] by construction *)
  per_proc : proc_stats array;  (** indexed by procedure id *)
  set_misses : int array;  (** misses per cache set *)
  set_lines : int array;  (** distinct lines mapping to each set (pressure) *)
  timeline : int array;  (** misses per trace interval (phase behaviour) *)
  interval_events : int;  (** trace events per timeline bucket *)
  conflict_pairs : (int * int * int) array;
      (** sparse conflict matrix as [(evictor, victim, count)], sorted by
          descending count then ascending ids.  [victim] is the procedure
          whose line was displaced and then missed; [evictor] is the
          procedure whose fill displaced it. *)
}

val simulate :
  ?intervals:int ->
  ?policy:Policy.kind ->
  Trg_program.Program.t ->
  Trg_program.Layout.t ->
  Config.t ->
  Trg_trace.Trace.t ->
  t
(** Attribution-mode simulation with a cold cache (direct-mapped when
    [assoc = 1], like {!Sim.simulate}).  [policy] (default {!Policy.Lru})
    selects the real cache's replacement policy; the 3C divider is
    policy-independent (the shadow cache stays fully-associative LRU), and
    [compulsory + capacity + conflict = result.misses] holds under every
    policy.  [intervals] (default 60) sets the timeline resolution; the
    trace is split into that many equal event intervals (at least one
    event each).

    The trace is validated against the program up front: every event must
    reference an existing procedure and stay within its byte range.
    @raise Invalid_argument on a trace/program mismatch or when
    [intervals <= 0]. *)

val conflict_row_sums : t -> int array
(** Per-victim-procedure totals of {!t.conflict_pairs} — by construction
    equal to [per_proc.(p).p_conflicts] for every [p]. *)
