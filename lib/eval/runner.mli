(** Shared experiment context: one prepared benchmark.

    Preparing a benchmark generates the program, walks the training and
    testing traces, builds the GBSC profile (popularity, TRG_select,
    TRG_place) and the weighted call graph — everything the individual
    experiments consume.  Preparation is deterministic. *)

type t = {
  shape : Trg_synth.Shape.t;
  workload : Trg_synth.Gen.workload;
  train : Trg_trace.Trace.t;
  test : Trg_trace.Trace.t;
  config : Trg_place.Gbsc.config;
  policy : Trg_cache.Policy.kind;
      (** replacement policy every miss-rate scoring uses *)
  prof : Trg_place.Gbsc.profile;  (** built from the training trace *)
  wcg : Trg_profile.Graph.t;  (** built from the training trace *)
}

val prepare :
  ?config:Trg_place.Gbsc.config ->
  ?policy:Trg_cache.Policy.kind ->
  ?force_fail:string list ->
  Trg_synth.Shape.t ->
  t
(** Default config: the paper's 8 KB direct-mapped operating point, with
    true LRU replacement ([policy] defaults to {!Trg_cache.Policy.Lru},
    which coincides with every policy at [assoc = 1]).
    Failures in any preparation stage are re-raised as [Failure] tagged
    with the benchmark name and stage.

    [force_fail] is the fault-injection hook: preparation raises
    immediately for benchmarks named in it.  It is explicit state
    threaded from [trgplace --force-fail] (no global — workers forked by
    {!Pool} and interleaved tests would otherwise share it). *)

val program : t -> Trg_program.Program.t

val miss_rate_on :
  t -> Trg_cache.Config.t -> Trg_program.Layout.t -> Trg_trace.Trace.t -> float

val test_miss_rate : t -> Trg_program.Layout.t -> float
(** Miss rate of a layout on the testing trace under the prepared cache. *)

val train_miss_rate : t -> Trg_program.Layout.t -> float

val default_layout : t -> Trg_program.Layout.t

val gbsc_layout :
  ?decisions:Trg_obs.Journal.decision array -> t -> Trg_program.Layout.t
(** The three journal-aware layouts accept a recorded decision sequence
    and replay it in forced-choice mode (see {!Trg_place.Merge_driver.replay});
    without [decisions] they run the live greedy search. *)

val ph_layout :
  ?decisions:Trg_obs.Journal.decision array -> t -> Trg_program.Layout.t

val hkc_layout :
  ?decisions:Trg_obs.Journal.decision array -> t -> Trg_program.Layout.t

val torrellas_layout : t -> Trg_program.Layout.t
(** The logical-cache baseline (paper Section 7 related work). *)

val hwu_chang_layout : t -> Trg_program.Layout.t
(** The DFS-proximity baseline (paper Section 7 related work). *)
