module Shape = Trg_synth.Shape
module Gen = Trg_synth.Gen
module Trace = Trg_trace.Trace
module Layout = Trg_program.Layout
module Sim = Trg_cache.Sim
module Gbsc = Trg_place.Gbsc
module Ph = Trg_place.Ph
module Hkc = Trg_place.Hkc
module Wcg = Trg_profile.Wcg

type t = {
  shape : Shape.t;
  workload : Gen.workload;
  train : Trace.t;
  test : Trace.t;
  config : Gbsc.config;
  policy : Trg_cache.Policy.kind;
  prof : Gbsc.profile;
  wcg : Trg_profile.Graph.t;
}

(* Annotate failures with the benchmark and pipeline stage so a batch
   report can say more than "exception somewhere in prepare"; each stage
   is also a telemetry span, so manifests show where preparation time
   and allocation go per benchmark. *)
let stage shape name f =
  try Trg_obs.Span.with_ name f
  with e ->
    let msg = match e with Failure m -> m | e -> Printexc.to_string e in
    failwith (Printf.sprintf "%s: %s stage failed: %s" shape.Shape.name name msg)

let prepare ?config ?(policy = Trg_cache.Policy.Lru) ?(force_fail = []) shape =
  Trg_obs.Span.with_ ("prepare:" ^ shape.Shape.name) (fun () ->
      Trg_obs.Log.info (fun m -> m "preparing benchmark %s" shape.Shape.name);
      if List.mem shape.Shape.name force_fail then
        failwith
          (Printf.sprintf "%s: forced failure injected (--force-fail)"
             shape.Shape.name);
      let config = match config with Some c -> c | None -> Gbsc.default_config () in
      let workload = stage shape "generate" (fun () -> Gen.generate shape) in
      let train = stage shape "train-trace" (fun () -> Gen.train_trace workload) in
      let test = stage shape "test-trace" (fun () -> Gen.test_trace workload) in
      let prof =
        stage shape "profile" (fun () -> Gbsc.profile config workload.Gen.program train)
      in
      let wcg = stage shape "wcg" (fun () -> Wcg.build train) in
      Trg_cache.Policy.validate policy ~assoc:config.Gbsc.cache.Trg_cache.Config.assoc;
      {
        shape;
        workload;
        train;
        test;
        config;
        policy;
        prof;
        wcg;
      })

let program t = t.workload.Gen.program

let miss_rate_on t cache layout trace =
  Sim.miss_rate (Sim.simulate ~policy:t.policy (program t) layout cache trace)

let test_miss_rate t layout = miss_rate_on t t.config.Gbsc.cache layout t.test

let train_miss_rate t layout = miss_rate_on t t.config.Gbsc.cache layout t.train

let default_layout t = Layout.default (program t)

let gbsc_layout ?decisions t = Gbsc.place ?decisions (program t) t.prof

let ph_layout ?decisions t = Ph.place ?decisions ~wcg:t.wcg (program t)

let hkc_layout ?decisions t =
  Hkc.place ?decisions t.config (program t) ~wcg:t.wcg
    ~popularity:t.prof.Gbsc.popularity

let torrellas_layout t =
  Trg_place.Torrellas.place t.config (program t)
    ~popularity:t.prof.Gbsc.popularity

let hwu_chang_layout t = Trg_place.Hwu_chang.place ~wcg:t.wcg (program t)
