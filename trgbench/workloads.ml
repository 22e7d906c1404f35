(* The three workloads.  Each runs in its own process (see trgbench.ml):
   a set-up, a warm-up, checks on the warm-up's outputs, and a timed
   closed loop — one client, the next job starts when the previous one
   ends — taken in whole cycles over the workload's job classes until the
   requested seconds have passed.  The untraced run sets up again at
   even intervals inside the timed phase; the median of its set-ups is
   setup_s. *)

module Gen = Trg_synth.Gen
module Shape = Trg_synth.Shape
module Walker = Trg_synth.Walker
module Gbsc = Trg_place.Gbsc
module Cost = Trg_place.Cost
module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Serial = Trg_program.Serial
module Trace = Trg_trace.Trace
module Event = Trg_trace.Event
module Io = Trg_trace.Io
module Sim = Trg_cache.Sim
module Config = Trg_cache.Config
module Policy = Trg_cache.Policy
module Metrics = Trg_obs.Metrics
module Stats = Trg_util.Stats

let now = Trg_util.Clock.monotonic

type metric = string * float * string

(* What a workload process sends back: [metrics] is exactly the set the
   JSON result carries (end-to-end, or per-layer when traced); [notes]
   are printed alongside but stay out of the JSON. *)
type result = {
  attempted : int;
  failed : int;
  problems : string list;
  metrics : metric list;
  notes : metric list;
}

let names = [ "place-cold"; "place-warm-sparse"; "place-warm-dense" ]

let setup_reps = 5

(* The paper's operating point: 8 KB direct-mapped, 32-byte lines. *)
let config = Gbsc.default_config ()
let cache = config.Gbsc.cache

(* Seed 0 is the committed Trg_synth.Bench shape.  Any other seed gives
   the training and testing walkers fresh, disjoint seeds: new inputs to
   the same program.  The program generator keeps its seed because a new
   program moves job cost by about 15% from seed to seed, more than any
   regression bound can absorb. *)
let shape ~seed name =
  let s = Trg_synth.Bench.find name in
  if seed = 0 then s
  else begin
    let walker (p : Walker.params) k =
      { p with Walker.seed = (((s.Shape.seed * 1000) + seed) * 10) + k }
    in
    { s with Shape.train = walker s.Shape.train 1; test = walker s.Shape.test 2 }
  end

let ratio a b = if b = 0. then 0. else a /. b

let median_of l = Stats.median (Array.of_list l)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- checks shared by the job streams ---------------------------------- *)

type output = { program : Program.t; layout : Layout.t; sim : Sim.result }

type golden = { g_layout_crc : int; g_accesses : int; g_misses : int }

(* An independent direct-mapped simulator on the brute-force reference
   model, sharing no code with Sim. *)
let reference_sim layout flat =
  let line = cache.Config.line_size in
  let probe =
    Policy.Reference.create Policy.Lru ~n_sets:(Config.n_sets cache)
      ~assoc:cache.Config.assoc
  in
  let accesses = ref 0 and misses = ref 0 in
  Trace.Flat.iter
    (fun (e : Event.t) ->
      let base = Layout.address layout e.Event.proc + e.Event.offset in
      for la = base / line to (base + e.Event.len - 1) / line do
        incr accesses;
        if Policy.Reference.access probe la <> -2 then incr misses
      done)
    flat;
  (!accesses, !misses)

let with_engine kind f =
  let saved = Cost.engine () in
  Cost.set_engine kind;
  Fun.protect ~finally:(fun () -> Cost.set_engine saved) f

let round_trips o =
  Layout.digest (Layout.of_addresses o.program (Layout.addresses o.layout))
  = Layout.digest o.layout

let same_output a b =
  Layout.digest a.layout = Layout.digest b.layout
  && a.sim.Sim.accesses = b.sim.Sim.accesses
  && a.sim.Sim.misses = b.sim.Sim.misses

(* --- job streams --------------------------------------------------------- *)

(* A job class.  [test] and [profile] serve the warm-up checks only. *)
type cls = {
  bench : string;
  program : Program.t;
  test : Trace.Flat.t;
  profile : Gbsc.profile Lazy.t;
  events_loaded : int;  (** trace events one job reads from disk *)
  job : unit -> output;
}

let generate ~seed bench =
  let w = Gen.generate (shape ~seed bench) in
  (w.Gen.program, Gen.train_trace w, Gen.test_trace w)

(* `trgplace place` followed by `trgplace simulate`, minus process
   start-up: every input comes from the v3 files set-up wrote, and the
   simulate half reads the program and layout back as that command does. *)
let cold_job file () =
  let span = Tracer.with_ in
  let program = span "program.load" (fun () -> Serial.load_program (file "program")) in
  let train = span "trace.load" (fun () -> Io.load (file "train")) in
  let prof = span "profile.gbsc" (fun () -> Gbsc.profile config program train) in
  let layout = span "place.gbsc" (fun () -> Gbsc.place program prof) in
  span "program.save" (fun () -> Serial.save_layout (file "layout") layout);
  let program = span "program.load" (fun () -> Serial.load_program (file "program")) in
  let layout = span "program.load" (fun () -> Serial.load_layout program (file "layout")) in
  let test = span "trace.load" (fun () -> Io.load (file "test")) in
  let sim = span "cache.sim" (fun () -> Sim.simulate program layout cache test) in
  { program; layout; sim }

let setup_cold ~seed ~dir bench =
  let program, train, test = generate ~seed bench in
  let file ext = Filename.concat dir (bench ^ "." ^ ext) in
  let test = Trace.Flat.of_trace test in
  Serial.save_program (file "program") program;
  Io.save_flat (file "train") (Trace.Flat.of_trace train);
  Io.save_flat (file "test") test;
  {
    bench;
    program;
    test;
    profile = lazy (Gbsc.profile config program (Io.load (file "train")));
    events_loaded = Trace.length train + Trace.Flat.length test;
    job = cold_job file;
  }

(* A placement against a profile built at set-up, then a simulation of
   the testing trace: the evaluation's repeated-placement path. *)
let setup_warm ~seed ~dir:_ bench =
  let program, train, test = generate ~seed bench in
  let prof = Gbsc.profile config program train in
  let test = Trace.Flat.of_trace test in
  let job () =
    let layout = Tracer.with_ "place.gbsc" (fun () -> Gbsc.place program prof) in
    let sim = Tracer.with_ "cache.sim" (fun () -> Sim.simulate_flat program layout cache test) in
    { program; layout; sim }
  in
  { bench; program; test; profile = Lazy.from_val prof; events_loaded = 0; job }

(* Classes repeat a benchmark to weight it; a repeated benchmark is set
   up once and its class shares the inputs. *)
let setup_classes setup ~seed ~dir classes =
  let built = Hashtbl.create 4 in
  List.map
    (fun bench ->
      match Hashtbl.find_opt built bench with
      | Some c -> c
      | None ->
        let c = setup ~seed ~dir bench in
        Hashtbl.add built bench c;
        c)
    classes
  |> Array.of_list

(* Every check a warm-up output must pass, as problem strings. *)
let check_warmup ~golden c o =
  let problem cond msg = if cond then [] else [ c.bench ^ ": " ^ msg ] in
  let ref_accesses, ref_misses = reference_sim o.layout c.test in
  let full = with_engine Cost.Full (fun () -> Gbsc.place c.program (Lazy.force c.profile)) in
  List.concat
    [
      problem (round_trips o) "layout does not round-trip through Layout.of_addresses";
      problem
        (ref_accesses = o.sim.Sim.accesses && ref_misses = o.sim.Sim.misses)
        (Printf.sprintf "Sim counts %d/%d, reference model %d/%d" o.sim.Sim.accesses
           o.sim.Sim.misses ref_accesses ref_misses);
      problem
        (Layout.digest full = Layout.digest o.layout)
        "full and incremental cost engines give different layouts";
      (match golden with
      | None -> []
      | Some g ->
        problem
          (g.g_layout_crc = Layout.digest o.layout
          && g.g_accesses = o.sim.Sim.accesses
          && g.g_misses = o.sim.Sim.misses)
          "layout digest or miss count differs from golden.json");
    ]

let counter delta name =
  Option.value (List.assoc_opt name delta.Metrics.snap_counters) ~default:0
  |> float_of_int

let layer_names = [ "trace.load"; "program.load"; "program.save"; "profile.gbsc"; "place.gbsc"; "cache.sim" ]

(* Per-layer figures of a traced job stream, from its spans and the
   counter deltas of its timed phase. *)
let stream_layers ~jobs ~events_loaded ~delta spans =
  let n = float_of_int jobs in
  let costs = Tracer.self_costs spans in
  let self name =
    List.fold_left
      (fun (s, w) (sp, ss, sw) -> if sp.Tracer.name = name then (s +. ss, w +. sw) else (s, w))
      (0., 0.) costs
  in
  let job_s =
    List.fold_left
      (fun s (sp, _, _) ->
        if sp.Tracer.name = "job" then s +. sp.Tracer.end_s -. sp.Tracer.start_s else s)
      0. costs
  in
  let ms name = 1e3 *. ratio (fst (self name)) n in
  let mwords name = ratio (snd (self name)) n /. 1e6 in
  let share name = 100. *. ratio (fst (self name)) job_s in
  let attributed = List.fold_left (fun acc l -> acc +. fst (self l)) 0. layer_names in
  let c = counter delta in
  [
    ("trace.load_ms", ms "trace.load", "ms");
    ("trace.load_mevents_per_s", ratio events_loaded (fst (self "trace.load")) /. 1e6, "Mevents/s");
    ("trace.load_share_pct", share "trace.load", "%");
    ("program.load_ms", ms "program.load", "ms");
    ("program.save_ms", ms "program.save", "ms");
    ("profile.gbsc_ms", ms "profile.gbsc", "ms");
    ("profile.gbsc_alloc_mwords", mwords "profile.gbsc", "Mwords");
    ("profile.gbsc_share_pct", share "profile.gbsc", "%");
    ("place.gbsc_ms", ms "place.gbsc", "ms");
    ("place.gbsc_alloc_mwords", mwords "place.gbsc", "Mwords");
    ("place.gbsc_share_pct", share "place.gbsc", "%");
    ("cost.incr.seeded_pairs_per_job", ratio (c "cost/incr/seeded_pairs") n, "count");
    ("cost.incr.sets_recosted_per_job", ratio (c "cost/incr/sets_recosted") n, "count");
    ("cost.incr.fallbacks_per_job", ratio (c "cost/incr/fallbacks") n, "count");
    ("gbsc.offset_candidates_per_job", ratio (c "gbsc/offset_candidates") n, "count");
    ("merge.stale_pop_ratio", ratio (c "merge/stale_pops") (c "merge/heap_pops"), "ratio");
    ("cache.sim_ms", ms "cache.sim", "ms");
    ("cache.sim_alloc_mwords", mwords "cache.sim", "Mwords");
    ("cache.sim_share_pct", share "cache.sim", "%");
    ("cache.maccesses_per_s", ratio (c "sim/accesses") (fst (self "cache.sim")) /. 1e6, "Maccesses/s");
    ("sim.accesses_per_job", ratio (c "sim/accesses") n, "count");
    ("sim.miss_ratio", ratio (c "sim/misses") (c "sim/accesses"), "ratio");
    ("spans.attributed_pct", 100. *. ratio attributed job_s, "%");
  ]

(* Assembles a run's result.  The end-to-end metrics are the reported
   set of an untraced run; a traced run reports the job-level figures and
   [layers] instead.  Throughput is the jobs of whole cycles per second
   of their own time, so set-ups and checks stay out of it.  On a shared
   host, speed moves in phases that mostly outlast a run; of the mean,
   the median and the low percentiles of cycle time, the mean spread the
   least from run to run.  The median job and the tail are per-layer:
   they follow those phases, and allocation is a count. *)
let result ~traced ~attempted ~failed ~problems ~setup ~latencies ~cycles ~per_cycle ~tail_pct
    ~alloc_words ~layers =
  let n = Array.length latencies in
  let pct p = if n = 0 then 0. else 1e3 *. Stats.percentile latencies p in
  let cycles_s = List.fold_left ( +. ) 0. cycles in
  let e2e =
    [
      ("setup_s", median_of setup, "s");
      ("jobs_per_s", ratio (float_of_int (per_cycle * List.length cycles)) cycles_s, "1/s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let job_layer =
    [
      ("alloc_mwords_per_job", ratio alloc_words (float_of_int n) /. 1e6, "Mwords");
      ("job_p50_ms", pct 50., "ms");
      ("job_tail_ms", pct tail_pct, "ms");
    ]
  in
  let notes =
    [
      ("jobs", float_of_int n, "count");
      ("cycles", float_of_int (List.length cycles), "count");
      ("setups", float_of_int (List.length setup), "count");
      ("job_tail_percentile", tail_pct, "pct");
      ("failed_frac", ratio (float_of_int failed) (float_of_int attempted), "ratio");
    ]
  in
  let metrics, notes = if traced then (job_layer @ layers, e2e @ notes) else (e2e, job_layer @ notes) in
  { attempted; failed; problems; metrics; notes }

let stream_classes = function
  | "place-cold" -> (setup_cold, [ "perl"; "go"; "gcc" ], 75.)
  | "place-warm-sparse" -> (setup_warm, [ "go"; "perl"; "gcc" ], 95.)
  | "place-warm-dense" -> (setup_warm, [ "vortex"; "vortex"; "ghostscript" ], 95.)
  | w -> invalid_arg ("unknown workload " ^ w)

let run_stream ~workload ~seed ~seconds ~traced ~golden ~dir =
  let setup, class_names, tail_pct = stream_classes workload in
  (* The previous set-up's inputs are collected before the next one is
     built, so peak RSS holds one set of inputs. *)
  let classes = ref [||] and setups = ref [] in
  let set_up () =
    classes := [||];
    Gc.full_major ();
    let c, dt = time (fun () -> setup_classes setup ~seed ~dir class_names) in
    classes := c;
    setups := dt :: !setups
  in
  set_up ();
  Gc.compact ();
  let reference = Array.map (fun c -> c.job ()) !classes in
  let problems =
    List.concat
      (Array.to_list
         (Array.map2 (fun c o -> check_warmup ~golden:(golden c.bench) c o) !classes reference))
  in
  let latencies = ref [] and cycles = ref [] and alloc_words = ref 0. in
  let failed = ref 0 and attempted = ref 0 in
  let events_loaded = ref 0. and job_problems = ref [] in
  let before = Metrics.snapshot () in
  if traced then Tracer.start ();
  let t_start = now () in
  while !attempted = 0 || now () -. t_start < seconds do
    (* The remaining set-ups fall at even intervals of the timed phase,
       so their median samples the same host phases as the cycles do.
       They are left out of the traced run, whose counter deltas must
       hold jobs only.  The jobs after a set-up must still reproduce the
       warm-up: set-up is deterministic. *)
    let due = seconds *. float_of_int (List.length !setups) /. float_of_int setup_reps in
    if (not traced) && List.length !setups < setup_reps && now () -. t_start >= due then set_up ();
    let cycle_s = ref 0. and cycle_ok = ref true in
    Array.iteri
      (fun k c ->
        Tracer.set_job !attempted;
        incr attempted;
        let a0 = Tracer.allocated () and t0 = now () in
        let out = try Ok (Tracer.with_ "job" c.job) with e -> Error (Printexc.to_string e) in
        let dt = now () -. t0 and da = Tracer.allocated () -. a0 in
        let fail msg =
          incr failed;
          cycle_ok := false;
          job_problems := (c.bench ^ ": " ^ msg) :: !job_problems
        in
        match out with
        | Ok o when round_trips o && same_output o reference.(k) ->
          latencies := dt :: !latencies;
          cycle_s := !cycle_s +. dt;
          alloc_words := !alloc_words +. da;
          events_loaded := !events_loaded +. float_of_int c.events_loaded
        | Ok _ -> fail "a job's output differs from the warm-up's"
        | Error e -> fail ("a job raised " ^ e))
      !classes;
    if !cycle_ok then cycles := !cycle_s :: !cycles
  done;
  let problems = problems @ List.sort_uniq compare !job_problems in
  let phase_s = now () -. t_start in
  Tracer.stop ();
  let delta = Metrics.delta ~before ~after:(Metrics.snapshot ()) in
  result ~traced ~attempted:!attempted ~failed:!failed ~problems ~setup:!setups
    ~latencies:(Array.of_list !latencies) ~cycles:!cycles ~per_cycle:(Array.length reference)
    ~tail_pct ~alloc_words:!alloc_words
    ~layers:
      (stream_layers ~jobs:(List.length !latencies) ~events_loaded:!events_loaded ~delta
         (Tracer.spans ())
      @ [ ("tracing.overhead_pct", 100. *. ratio !Tracer.overhead_s phase_s, "%") ])
