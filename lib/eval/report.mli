(** Top-level experiment orchestration: regenerate every table and figure.

    Used by the [trgplace] CLI ([trgplace all --full-output] is the full
    reproduction run).  All entry points print their results to stdout as ASCII tables
    mirroring the paper's presentation.

    Execution is {b sharded}: benchmark preparation and per-layout
    simulation are decomposed into work units and distributed over a pool
    of forked worker processes (see {!Pool}).  The decomposition is fixed
    — it never depends on the job count — per-unit PRNGs make every unit's
    numbers independent of scheduling, and unit output and telemetry are
    replayed in task order, so results (stdout, counters, manifests) are
    identical whatever [jobs] is set to.

    Every experiment is {b failure-isolating}: with [keep_going] set, one
    benchmark raising does not kill the batch — the failure is reported
    inline, recorded in the returned list, and the remaining benchmarks
    still run.  Strict mode ([keep_going = false], the default) re-raises
    the first failure, matching the historical behavior. *)

type options = {
  runs : int;  (** Figure 5 perturbed placements per algorithm *)
  fig6_points : int;  (** Figure 6 randomized layouts *)
  benches : Trg_synth.Shape.t list;  (** benchmarks to evaluate *)
  print_cdf : bool;  (** print full Figure 5 CDFs *)
  print_points : bool;  (** print full Figure 6 point sets *)
  keep_going : bool;
      (** isolate failures per benchmark instead of aborting the batch *)
  force_fail : string list;
      (** fault injection: benchmarks whose preparation fails (threaded to
          every {!Runner.prepare} the experiments perform) *)
  jobs : int;
      (** worker processes; [0] (the default) auto-detects the CPU count *)
  timeout : float option;
      (** per-work-unit wall-clock budget in seconds; an overrunning
          worker is killed and the unit reported as failed *)
  retries : int;
      (** extra dispatches for units lost to infrastructure faults
          (worker crash, timeout, corrupt reply stream) — see
          {!Pool.run}; [0] (the default) fails such units immediately *)
  policy : Trg_cache.Policy.kind;
      (** replacement policy for every single-level cache simulation
          (default LRU, which is exact at the paper's direct-mapped
          operating point); threaded to every {!Runner.prepare} *)
  cpus : string list;
      (** CPU presets the hierarchy experiment simulates, by
          {!Trg_cache.Cpu} name (default {!Trg_cache.Cpu.default_selection}) *)
}

type failure = {
  experiment : string;
  bench : string option;  (** [None] for failures outside a benchmark body *)
  message : string;
}

val default_options : options
(** Paper-faithful: 40 runs, 80 points, all six benchmarks, strict. *)

val quick_options : options
(** Small and fast: 8 runs, 20 points, the [small] workload only, strict. *)

val resolve_options :
  quick:bool ->
  runs:int option ->
  points:int option ->
  benches:Trg_synth.Shape.t list ->
  options
(** The options of an experiment command line.  [quick] selects
    {!quick_options} as the base, otherwise {!default_options}; a run
    count, point count or benchmark list given explicitly ([Some _], a
    non-empty list) replaces the base's, so [--quick -b vortex] runs
    [vortex] with the quick counts. *)

val table1 : options -> failure list
(** Each experiment returns the failures it isolated — always [[]] in
    strict mode, where the first failure raises instead. *)

val characterize : options -> failure list
(** Reuse-distance characterisation of every selected benchmark. *)

val figure5 : options -> failure list

val figure6 : options -> failure list
(** Runs on [go] (as in the paper) when it is among the selected
    benchmarks, otherwise on the first selected benchmark. *)

val padding : options -> failure list
(** Runs on [perl] when selected, otherwise on the first benchmark. *)

val setassoc : options -> failure list
(** Runs on the [small] workload (pair databases are quadratic in Q). *)

val ablation : options -> failure list
(** Runs on the first selected benchmark. *)

val splitting : options -> failure list
(** Procedure splitting + GBSC on every selected benchmark. *)

val paging : options -> failure list
(** Page-locality comparison on every selected benchmark. *)

val sampling : options -> failure list
(** Sampled-profile quality study on the first selected benchmark. *)

val blocks : options -> failure list
(** Intra-procedure block reordering on every selected benchmark. *)

val online : options -> failure list
(** Online-vs-offline profiling comparison on the first selected benchmark. *)

val headroom : options -> failure list
(** Greedy-vs-annealed comparison on the first selected benchmark. *)

val hierarchy : options -> failure list
(** Multi-level hierarchy head-to-head (default vs PH vs HKC vs GBSC)
    across the selected CPU presets, on every selected benchmark. *)

val sweep : options -> failure list
(** Cache-size sweep on [go] when selected, else the first benchmark. *)

val all : options -> failure list
(** Every experiment in paper order, followed by the sweep.  All
    experiments' work units share one pool, so a slow experiment overlaps
    the rest of the batch.  With [keep_going], partial results are printed
    and every isolated failure is returned; callers turn a non-empty list
    into a non-zero exit. *)

val print_summary : failure list -> unit
(** Prints a per-failure summary table (nothing for [[]]). *)
