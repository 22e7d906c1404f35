(* trgplace: command-line driver for the reproduction experiments.

   Each subcommand regenerates one of the paper's tables or figures; [all]
   reproduces the full evaluation.  [demo] runs the end-to-end pipeline on
   one benchmark and prints a compact before/after comparison. *)

open Cmdliner
module J = Trg_obs.Json
module Log = Trg_obs.Log
module Journal = Trg_obs.Journal

let bench_names = Trg_synth.Bench.names @ [ "small" ]

let shapes_of_names names =
  List.map
    (fun n ->
      try Trg_synth.Bench.find n
      with Not_found ->
        Log.err (fun m ->
            m "unknown benchmark %S (choose from: %s)" n
              (String.concat ", " bench_names));
        exit 2)
    names

(* Only an explicit [--verbose] touches the level: without it the
   process keeps [Log]'s default, which honours $(b,TRGPLACE_LOG). *)
let setup_logs verbose = if verbose then Log.set_level Log.Info

let verbose_term =
  let doc =
    "Log placement progress (info level) to stderr.  Without this flag \
     the level comes from the TRGPLACE_LOG environment variable (quiet, \
     error, warn, info or debug; default warn)."
  in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let profile_term =
  let doc =
    "Hot-path profiling: record prof/* wall-time histograms (per-merge \
     cost in the placement search, incremental-engine seed/charge/apply \
     phases, pool queue-wait vs run time).  Off by default: the \
     instrumented sites then cost one branch, register nothing, and \
     manifests stay byte-comparable.  Inspect with $(b,trgplace stats) \
     on a $(b,--metrics-out) manifest."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let cost_engine_term =
  let doc =
    "Conflict-cost evaluator for the placement search: $(b,incr) (the \
     default) maintains pairwise cost arrays incrementally and is \
     10-100x cheaper per merge; $(b,full) recomputes every cost array \
     from profile edges.  Layouts and miss rates are bit-identical — \
     models outside the incremental engine's exactness guarantee fall \
     back to full automatically (counted in cost/incr/fallbacks)."
  in
  Arg.(
    value
    & opt
        (enum [ ("full", Trg_place.Cost.Full); ("incr", Trg_place.Cost.Incr) ])
        Trg_place.Cost.Incr
    & info [ "cost-engine" ] ~docv:"ENGINE" ~doc)

let policy_conv =
  let parse s =
    match Trg_cache.Policy.of_string s with
    | Ok k -> Ok k
    | Error msg -> Error (`Msg msg)
  in
  let print ppf k = Format.pp_print_string ppf (Trg_cache.Policy.to_string k) in
  Arg.conv (parse, print)

let policy_term =
  let doc =
    Printf.sprintf
      "Replacement policy for every single-level cache simulation: %s.  \
       All policies coincide at assoc 1 (the paper's direct-mapped \
       operating point), so the default, lru, reproduces the historical \
       numbers bit-for-bit."
      (String.concat ", " Trg_cache.Policy.names)
  in
  Arg.(value & opt policy_conv Trg_cache.Policy.Lru & info [ "policy" ] ~docv:"POLICY" ~doc)

let cpus_term =
  let doc =
    Printf.sprintf
      "CPU preset the hierarchy experiment simulates (repeatable): %s.  \
       Default: %s."
      (String.concat ", " Trg_cache.Cpu.names)
      (String.concat " " Trg_cache.Cpu.default_selection)
  in
  Arg.(value & opt_all string [] & info [ "cpu" ] ~docv:"NAME" ~doc)

(* Resolve --cpu names at option-parse time so a typo exits 2 with the
   valid list instead of failing mid-experiment. *)
let resolve_cpus = function
  | [] -> Trg_cache.Cpu.default_selection
  | names ->
    List.iter
      (fun n ->
        match Trg_cache.Cpu.find n with
        | Ok _ -> ()
        | Error msg ->
          Log.err (fun m -> m "%s" msg);
          exit 2)
      names;
    names

let options_term =
  let runs =
    let doc =
      "Number of perturbed placements per algorithm (Figure 5).  Defaults \
       to 40, or 8 with $(b,--quick)."
    in
    Arg.(value & opt (some int) None & info [ "runs" ] ~docv:"N" ~doc)
  in
  let points =
    let doc =
      "Number of randomized layouts (Figure 6).  Defaults to 80, or 20 \
       with $(b,--quick)."
    in
    Arg.(value & opt (some int) None & info [ "points" ] ~docv:"N" ~doc)
  in
  let benches =
    let doc =
      "Benchmarks to evaluate (repeatable).  Defaults to the six Table 1 \
       workloads, or $(b,small) with $(b,--quick)."
    in
    Arg.(value & opt_all string [] & info [ "bench"; "b" ] ~docv:"NAME" ~doc)
  in
  let quick =
    let doc =
      "Quick mode: the small workload with few runs and points.  Sets only \
       defaults: $(b,--bench), $(b,--runs) and $(b,--points) given \
       explicitly still apply."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let full_output =
    let doc = "Print full CDFs / point sets rather than summaries." in
    Arg.(value & flag & info [ "full-output" ] ~doc)
  in
  let keep_going =
    let doc =
      "Isolate failures: a benchmark that fails to prepare or evaluate is \
       reported and skipped instead of aborting the batch.  The exit code \
       is 3 when any step failed."
    in
    Arg.(value & flag & info [ "keep-going"; "k" ] ~doc)
  in
  let strict =
    let doc = "Abort on the first failure (the default; overrides $(b,--keep-going))." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let force_fail =
    let doc =
      "Fault injection: force the named benchmark's preparation to fail \
       (repeatable).  For exercising $(b,--keep-going) isolation."
    in
    Arg.(value & opt_all string [] & info [ "force-fail" ] ~docv:"NAME" ~doc)
  in
  let jobs =
    let doc =
      "Worker processes for sharded evaluation.  0 (the default) \
       auto-detects the CPU count.  Results are identical whatever the \
       job count."
    in
    Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let timeout =
    let doc =
      "Per-work-unit wall-clock budget in seconds; an overrunning worker \
       is killed and the unit reported as failed."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let retries =
    let doc =
      "Extra dispatches for work units lost to infrastructure faults (a \
       crashed or timed-out worker, a corrupt result stream), with \
       exponential backoff.  Units whose own code fails are never \
       retried.  0 (the default) fails such units immediately."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let make verbose profile runs points benches quick full_output keep_going
      strict force_fail jobs timeout retries cost_engine policy cpus =
    setup_logs verbose;
    Trg_obs.Prof.set_enabled profile;
    Trg_place.Cost.set_engine cost_engine;
    let cpus = resolve_cpus cpus in
    let keep_going = keep_going && not strict in
    if jobs < 0 then begin
      Log.err (fun m -> m "--jobs must be non-negative (got %d)" jobs);
      exit 2
    end;
    (match timeout with
    | Some t when t <= 0. ->
      Log.err (fun m -> m "--timeout must be positive (got %g)" t);
      exit 2
    | _ -> ());
    if retries < 0 then begin
      Log.err (fun m -> m "--retries must be non-negative (got %d)" retries);
      exit 2
    end;
    {
      (Trg_eval.Report.resolve_options ~quick ~runs ~points
         ~benches:(shapes_of_names benches))
      with
      Trg_eval.Report.print_cdf = full_output;
      print_points = full_output;
      keep_going;
      force_fail;
      jobs;
      timeout;
      retries;
      policy;
      cpus;
    }
  in
  Term.(
    const make $ verbose_term $ profile_term $ runs $ points $ benches $ quick
    $ full_output $ keep_going $ strict $ force_fail $ jobs $ timeout
    $ retries $ cost_engine_term $ policy_term $ cpus_term)

(* --- telemetry manifest plumbing ------------------------------------- *)

let metrics_term =
  let doc =
    "Enable telemetry and write a JSON run manifest (resolved options, \
     counters, spans, heap statistics, exit status) to $(docv) when the \
     command finishes — also on partial or complete failure.  Inspect it \
     with $(b,trgplace stats)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* --- decision-journal plumbing ---------------------------------------- *)

let journal_out_term =
  let doc =
    "Record a merge-decision journal — one record per merge decision: the \
     chosen pair, winning weight, runner-up candidate and margin, group \
     sizes, and GBSC's offset with its conflict cost — and write it to \
     $(docv) (CRC-guarded, atomic).  The journalled placement runs \
     in-process on the first selected benchmark (pool workers cannot feed \
     the journal).  Verify with $(b,trgplace replay); interrogate with \
     $(b,trgplace why)."
  in
  Arg.(value & opt (some string) None & info [ "journal-out" ] ~docv:"FILE" ~doc)

(* The algorithms whose merge decisions a journal records. *)
let journal_algos = Arg.enum (List.map (fun a -> (a, a)) [ "gbsc"; "ph"; "hkc"; "gbsc-sa" ])

let journal_algo_term =
  let doc = "Algorithm whose decisions to journal." in
  Arg.(value & opt journal_algos "gbsc" & info [ "journal-algo" ] ~docv:"ALGO" ~doc)

(* The manifest's "journal" member: enough to find the file and check it
   is the one the run wrote (schema, step count, layout CRC). *)
let journal_manifest_json ~path (j : Journal.t) =
  J.Obj
    [
      ("schema", J.String Journal.schema);
      ("path", J.String path);
      ("algo", J.String j.Journal.meta.Journal.algo);
      ("source", J.String j.Journal.meta.Journal.source);
      ("engine", J.String j.Journal.meta.Journal.engine);
      ("steps", J.Int (Array.length j.Journal.decisions));
      ( "layout_crc",
        J.String (Printf.sprintf "%08x" j.Journal.claims.Journal.layout_crc) );
    ]

let save_journal path j =
  Journal.save path j;
  Log.info (fun m ->
      m "wrote decision journal %s (%d steps)" path
        (Array.length j.Journal.decisions));
  journal_manifest_json ~path j

let config_json (o : Trg_eval.Report.options) =
  [
    ("runs", J.Int o.Trg_eval.Report.runs);
    ("fig6_points", J.Int o.fig6_points);
    ( "benches",
      J.List (List.map (fun s -> J.String s.Trg_synth.Shape.name) o.benches) );
    ("print_cdf", J.Bool o.print_cdf);
    ("print_points", J.Bool o.print_points);
    ("keep_going", J.Bool o.keep_going);
    ("force_fail", J.List (List.map (fun n -> J.String n) o.force_fail));
    ("jobs", J.Int o.jobs);
    ("timeout", match o.timeout with Some t -> J.Float t | None -> J.Null);
    ("retries", J.Int o.retries);
    ("policy", J.String (Trg_cache.Policy.to_string o.policy));
    ("cpus", J.List (List.map (fun n -> J.String n) o.cpus));
    (* Read back from the process-global set at option-parse time, so the
       manifest records the engine the run actually used. *)
    ( "cost_engine",
      J.String (Trg_place.Cost.engine_name (Trg_place.Cost.engine ())) );
  ]

(* Manifest writing wraps every command outcome, so a failed run still
   leaves a machine-readable record of how far it got.  [explain] embeds
   a miss-attribution summary when the command produced one. *)
let finish_run ~command ~config ?explain ?journal metrics_out status code =
  (match metrics_out with
  | None -> ()
  | Some path ->
    let manifest =
      Trg_obs.Manifest.build ~command ~argv:(Array.to_list Sys.argv) ~config
        ?explain ?journal ~status ~exit_code:code ()
    in
    Trg_obs.Manifest.write path manifest;
    Log.info (fun m -> m "wrote run manifest %s" path));
  if code <> 0 then exit code

let experiment name doc f =
  let run options metrics_out journal_out journal_algo =
    if metrics_out <> None then Trg_obs.Span.set_enabled true;
    let finish ?journal status code =
      finish_run ~command:name ~config:(config_json options) ?journal
        metrics_out status code
    in
    (* One extra in-process placement on the first selected benchmark:
       the experiment's own placements may run inside forked pool
       workers, which cannot feed the process-global journal. *)
    let record_journal () =
      match journal_out with
      | None -> None
      | Some path ->
        let shape = List.hd options.Trg_eval.Report.benches in
        let runner = Trg_eval.Runner.prepare shape in
        let j, _layout = Trg_eval.Replay.record ~algo:journal_algo runner in
        let member = save_journal path j in
        Printf.printf "wrote decision journal %s (%d steps)\n" path
          (Array.length j.Journal.decisions);
        Some member
    in
    match Trg_obs.Span.with_ name (fun () -> f options) with
    | [] -> (
      match record_journal () with
      | journal -> finish ?journal Trg_obs.Manifest.Ok 0
      | exception Failure msg ->
        Log.err (fun m -> m "journal: %s" msg);
        finish Trg_obs.Manifest.Failed 1)
    | failures ->
      Trg_eval.Report.print_summary failures;
      (* Partial failure: results above are valid, but not complete. *)
      finish Trg_obs.Manifest.Partial 3
    | exception Failure msg ->
      Log.err (fun m -> m "%s" msg);
      finish Trg_obs.Manifest.Failed 1
  in
  let term =
    Term.(
      const run $ options_term $ metrics_term $ journal_out_term
      $ journal_algo_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let demo_cmd =
  let doc = "End-to-end pipeline demo on one benchmark." in
  let bench =
    Arg.(value & opt string "small" & info [ "bench"; "b" ] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  let run name metrics_out =
    if metrics_out <> None then Trg_obs.Span.set_enabled true;
    let finish =
      finish_run ~command:"demo" ~config:[ ("bench", J.String name) ] metrics_out
    in
    let body () =
      let shape = shapes_of_names [ name ] |> List.hd in
      let r = Trg_eval.Runner.prepare shape in
      let module Table = Trg_util.Table in
      Table.section (Printf.sprintf "DEMO — %s" name);
      let layouts =
        [
          ("default", Trg_eval.Runner.default_layout r);
          ("Hwu-Chang", Trg_eval.Runner.hwu_chang_layout r);
          ("Torrellas", Trg_eval.Runner.torrellas_layout r);
          ("PH", Trg_eval.Runner.ph_layout r);
          ("HKC", Trg_eval.Runner.hkc_layout r);
          ("GBSC", Trg_eval.Runner.gbsc_layout r);
        ]
      in
      Table.print
        ~header:[ "layout"; "train MR"; "test MR" ]
        (List.map
           (fun (label, layout) ->
             [
               label;
               Table.fmt_pct (Trg_eval.Runner.train_miss_rate r layout);
               Table.fmt_pct (Trg_eval.Runner.test_miss_rate r layout);
             ])
           layouts)
    in
    match Trg_obs.Span.with_ "demo" body with
    | () -> finish Trg_obs.Manifest.Ok 0
    | exception Failure msg ->
      Log.err (fun m -> m "%s" msg);
      finish Trg_obs.Manifest.Failed 1
  in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ bench $ metrics_term)

(* --- file-based pipeline commands ------------------------------------ *)

let cache_term =
  let size = Arg.(value & opt int 8192 & info [ "cache-size" ] ~docv:"BYTES" ~doc:"Cache capacity.") in
  let line = Arg.(value & opt int 32 & info [ "line-size" ] ~docv:"BYTES" ~doc:"Line size.") in
  let assoc = Arg.(value & opt int 1 & info [ "assoc" ] ~docv:"WAYS" ~doc:"Associativity.") in
  Term.(
    const (fun size line_size assoc -> Trg_cache.Config.make ~size ~line_size ~assoc)
    $ size $ line $ assoc)

let gen_cmd =
  let doc = "Generate a benchmark: program + training/testing traces as files." in
  let bench =
    Arg.(value & opt string "small" & info [ "bench"; "b" ] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  let out_dir =
    Arg.(value & opt string "." & info [ "out-dir"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let binary =
    Arg.(value & flag & info [ "binary" ] ~doc:"Write traces in the compact binary format.")
  in
  let run name dir binary =
    let shape = shapes_of_names [ name ] |> List.hd in
    let w = Trg_synth.Gen.generate shape in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path f = Filename.concat dir f in
    let save = if binary then Trg_trace.Io.save_binary else Trg_trace.Io.save in
    Trg_program.Serial.save_program (path "program.txt") w.Trg_synth.Gen.program;
    save (path "train.trace") (Trg_synth.Gen.train_trace w);
    save (path "test.trace") (Trg_synth.Gen.test_trace w);
    Printf.printf "wrote %s, %s, %s\n" (path "program.txt") (path "train.trace")
      (path "test.trace")
  in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const run $ bench $ out_dir $ binary)

(* Artifact loads behind the file-mode commands retry transient I/O
   errors with real backoff ([Fault.with_retry]'s default sleep is a
   no-op, kept for tests; {!Trg_util.Clock.sleep} waits out the delay,
   resuming across EINTR). *)
let retrying f = Trg_util.Fault.with_retry ~sleep:Trg_util.Clock.sleep f

let place_cmd =
  let doc = "Compute a placement from a program file and a training trace file." in
  let program_f =
    Arg.(required & opt (some string) None & info [ "program"; "p" ] ~docv:"FILE" ~doc:"Program file.")
  in
  let trace_f =
    Arg.(required & opt (some string) None & info [ "trace"; "t" ] ~docv:"FILE" ~doc:"Training trace file.")
  in
  let out_f =
    Arg.(value & opt string "layout.txt" & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output layout file.")
  in
  let algo =
    Arg.(
      value
      & opt (enum [ ("gbsc", `Gbsc); ("gbsc-paged", `Paged); ("gbsc-sa", `Sa); ("ph", `Ph); ("hkc", `Hkc); ("default", `Default) ]) `Gbsc
      & info [ "algo"; "a" ] ~docv:"ALGO" ~doc:"Placement algorithm: gbsc, gbsc-paged, gbsc-sa, ph, hkc or default.")
  in
  let run program_f trace_f out_f algo cache cost_engine =
    Trg_place.Cost.set_engine cost_engine;
    let program = retrying (fun () -> Trg_program.Serial.load_program program_f) in
    let trace = retrying (fun () -> Trg_trace.Io.load trace_f) in
    let config = Trg_place.Gbsc.default_config ~cache () in
    let layout =
      match algo with
      | `Default -> Trg_program.Layout.default program
      | `Ph -> Trg_place.Ph.place ~wcg:(Trg_profile.Wcg.build trace) program
      | `Hkc ->
        let prof = Trg_place.Gbsc.profile config program trace in
        Trg_place.Hkc.place config program
          ~wcg:(Trg_profile.Wcg.build trace)
          ~popularity:prof.Trg_place.Gbsc.popularity
      | `Gbsc -> Trg_place.Gbsc.run config program trace
      | `Paged ->
        Trg_place.Gbsc.place_paged program (Trg_place.Gbsc.profile config program trace)
      | `Sa -> Trg_place.Gbsc_sa.run config program trace
    in
    Trg_program.Serial.save_layout out_f layout;
    Printf.printf "wrote %s (span %d bytes, %d gap bytes)\n" out_f
      (Trg_program.Layout.span layout)
      (Trg_program.Layout.gap_bytes layout program)
  in
  Cmd.v (Cmd.info "place" ~doc)
    Term.(const run $ program_f $ trace_f $ out_f $ algo $ cache_term $ cost_engine_term)

let simulate_cmd =
  let doc = "Simulate a layout file against a trace file and report the miss rate." in
  let program_f =
    Arg.(required & opt (some string) None & info [ "program"; "p" ] ~docv:"FILE" ~doc:"Program file.")
  in
  let layout_f =
    Arg.(required & opt (some string) None & info [ "layout"; "l" ] ~docv:"FILE" ~doc:"Layout file.")
  in
  let trace_f =
    Arg.(required & opt (some string) None & info [ "trace"; "t" ] ~docv:"FILE" ~doc:"Trace file.")
  in
  let run program_f layout_f trace_f cache policy =
    let program = retrying (fun () -> Trg_program.Serial.load_program program_f) in
    let layout =
      retrying (fun () -> Trg_program.Serial.load_layout program layout_f)
    in
    let trace = retrying (fun () -> Trg_trace.Io.load trace_f) in
    let result = Trg_cache.Sim.simulate ~policy program layout cache trace in
    Printf.printf "cache %s (%s): %d accesses, %d misses, miss rate %.4f%%\n"
      (Format.asprintf "%a" Trg_cache.Config.pp cache)
      (Trg_cache.Policy.to_string policy)
      result.Trg_cache.Sim.accesses result.Trg_cache.Sim.misses
      (100. *. Trg_cache.Sim.miss_rate result)
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ program_f $ layout_f $ trace_f $ cache_term $ policy_term)

let export_dot_cmd =
  let doc = "Export a benchmark's WCG or TRG as Graphviz dot." in
  let bench =
    Arg.(value & opt string "small" & info [ "bench"; "b" ] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  let what =
    Arg.(
      value
      & opt (enum [ ("wcg", `Wcg); ("trg-select", `Select); ("trg-place", `Place) ]) `Select
      & info [ "what"; "w" ] ~docv:"GRAPH" ~doc:"Graph to export: wcg, trg-select or trg-place.")
  in
  let out =
    Arg.(value & opt string "graph.dot" & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let min_weight =
    Arg.(value & opt float 0. & info [ "min-weight" ] ~docv:"W" ~doc:"Drop edges lighter than W.")
  in
  let run name what out min_weight =
    let shape = shapes_of_names [ name ] |> List.hd in
    let r = Trg_eval.Runner.prepare shape in
    let program = Trg_eval.Runner.program r in
    let graph, namer =
      match what with
      | `Wcg -> (r.Trg_eval.Runner.wcg, Trg_program.Program.name program)
      | `Select ->
        ( r.Trg_eval.Runner.prof.Trg_place.Gbsc.select.Trg_profile.Trg.graph,
          Trg_program.Program.name program )
      | `Place ->
        let chunks = r.Trg_eval.Runner.prof.Trg_place.Gbsc.chunks in
        ( r.Trg_eval.Runner.prof.Trg_place.Gbsc.place.Trg_profile.Trg.graph,
          fun c ->
            Printf.sprintf "%s#%d"
              (Trg_program.Program.name program (Trg_program.Chunk.owner chunks c))
              (Trg_program.Chunk.index_in_proc chunks c) )
    in
    let oc = open_out out in
    output_string oc (Trg_profile.Graph.to_dot ~name:namer ~min_weight graph);
    close_out oc;
    Printf.printf "wrote %s (%d nodes, %d edges)\n" out
      (Trg_profile.Graph.n_nodes graph)
      (Trg_profile.Graph.n_edges graph)
  in
  Cmd.v (Cmd.info "export-dot" ~doc) Term.(const run $ bench $ what $ out $ min_weight)

let verify_cmd =
  let doc =
    "Check artifact integrity: header, records, and (v2) CRC-32 trailer of \
     trace, program and layout files."
  in
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"Artifact files.")
  in
  let sniff_magic path =
    In_channel.with_open_bin path (fun ic ->
        match In_channel.input_line ic with
        | Some line -> Trg_util.Fault.magic_of_line line
        | None -> "")
  in
  let verify_one path =
    let described f describe =
      match f with Ok v -> Ok (describe v) | Error e -> Error (Trg_util.Fault.to_string e)
    in
    match sniff_magic path with
    | exception Sys_error msg -> Error msg
    | "trgplace-trace" | "trgplace-traceb" ->
      described (Trg_trace.Io.load_result path) (fun t ->
          Printf.sprintf "trace (%d events)" (Trg_trace.Trace.length t))
    | "trgplace-program" ->
      described (Trg_program.Serial.load_program_result path) (fun p ->
          Printf.sprintf "program (%d procedures)" (Trg_program.Program.n_procs p))
    | "trgplace-layout" ->
      described (Trg_program.Serial.verify_layout_result path) (fun n ->
          Printf.sprintf "layout (%d procedures, structural check only)" n)
    | got -> Error (Printf.sprintf "unknown artifact magic %S" got)
  in
  let run files =
    let ok =
      List.fold_left
        (fun ok path ->
          match verify_one path with
          | Ok msg ->
            Printf.printf "%s: OK %s\n" path msg;
            ok
          | Error msg ->
            Printf.printf "%s: FAIL %s\n" path msg;
            false)
        true files
    in
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ files)

let explain_cmd =
  let doc =
    "Classify and attribute every cache miss of a layout: compulsory / \
     capacity / conflict split (3C, via a fully-associative LRU shadow \
     cache), the conflicting procedure pairs with their TRG edge weights, \
     per-procedure and per-set pressure, and a temporal miss timeline."
  in
  let bench =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench"; "b" ] ~docv:"NAME"
          ~doc:"Benchmark to diagnose (generates and profiles it first).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorthand for $(b,--bench small).")
  in
  let algos =
    Arg.(
      value
      & opt_all string []
      & info [ "algo"; "a" ] ~docv:"ALGO"
          ~doc:
            "Layouts to diagnose (repeatable): original, ph, hkc, gbsc, \
             hwu-chang, torrellas.  Default: original ph hkc gbsc.")
  in
  let train =
    Arg.(
      value & flag
      & info [ "train" ]
          ~doc:"Diagnose on the training trace instead of the testing trace.")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Skip the set-preserving line-alignment normalisation (compulsory \
             counts are then not comparable across layouts).")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Rows per ranking table.")
  in
  let intervals =
    Arg.(
      value & opt int 60
      & info [ "intervals" ] ~docv:"N" ~doc:"Miss-timeline resolution.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the full report as strict JSON (atomically).")
  in
  let program_f =
    Arg.(
      value
      & opt (some string) None
      & info [ "program"; "p" ] ~docv:"FILE" ~doc:"Program file (file-triple mode).")
  in
  let layout_f =
    Arg.(
      value
      & opt (some string) None
      & info [ "layout"; "l" ] ~docv:"FILE" ~doc:"Layout file (file-triple mode).")
  in
  let trace_f =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace"; "t" ] ~docv:"FILE" ~doc:"Trace file (file-triple mode).")
  in
  let run verbose bench quick algos train raw top intervals json_out program_f
      layout_f trace_f cache policy cost_engine metrics_out journal_out
      journal_algo =
    setup_logs verbose;
    Trg_place.Cost.set_engine cost_engine;
    if intervals <= 0 then begin
      Log.err (fun m -> m "explain: --intervals must be positive (got %d)" intervals);
      exit 2
    end;
    if metrics_out <> None then Trg_obs.Span.set_enabled true;
    let config =
      [
        ("bench", match bench with Some b -> J.String b | None -> J.Null);
        ("quick", J.Bool quick);
        ("algos", J.List (List.map (fun a -> J.String a) algos));
        ("train", J.Bool train);
        ("raw", J.Bool raw);
        ("top", J.Int top);
        ("intervals", J.Int intervals);
        ("policy", J.String (Trg_cache.Policy.to_string policy));
        ("cost_engine", J.String (Trg_place.Cost.engine_name cost_engine));
      ]
    in
    let body () =
      match (program_f, layout_f, trace_f) with
      | Some pf, Some lf, Some tf ->
        if journal_out <> None then begin
          Log.err (fun m ->
              m
                "explain: --journal-out needs a prepared benchmark; it does \
                 not work in file-triple mode");
          exit 2
        end;
        let program = retrying (fun () -> Trg_program.Serial.load_program pf) in
        let layout = retrying (fun () -> Trg_program.Serial.load_layout program lf) in
        let trace = retrying (fun () -> Trg_trace.Io.load tf) in
        (* No prepared profile in file mode: build TRG_select from the
           given trace so the report still shows temporal-ordering
           weights next to each conflicting pair. *)
        let built =
          Trg_profile.Trg.build_select
            ~capacity_bytes:(2 * cache.Trg_cache.Config.size) program trace
        in
        ( Trg_eval.Explain.make ~intervals ~policy
            ~source:(Printf.sprintf "%s + %s" (Filename.basename pf) (Filename.basename lf))
            ~trace_label:(Filename.basename tf) ~cache
            ~trg_weight:(Trg_profile.Graph.weight built.Trg_profile.Trg.graph)
            ~program ~trace ~raw
            [ (Filename.basename lf, layout) ],
          None )
      | None, None, None ->
        let name =
          match (bench, quick) with
          | Some b, _ -> b
          | None, true -> "small"
          | None, false -> "small"
        in
        let shape = shapes_of_names [ name ] |> List.hd in
        let gconfig = Trg_place.Gbsc.default_config ~cache () in
        let r = Trg_eval.Runner.prepare ~config:gconfig ~policy shape in
        let algos =
          match algos with [] -> Trg_eval.Explain.default_algos | l -> l
        in
        (* Arm before the diagnosis so the journalled algorithm's own
           placement (if diagnosed) is the one captured; otherwise run
           it once more, explicitly, after the report is built. *)
        if journal_out <> None then Journal.arm ~algo:journal_algo ~source:name;
        let e = Trg_eval.Explain.of_runner ~intervals ~use_train:train ~raw ~algos r in
        let journal =
          match journal_out with
          | None -> None
          | Some path ->
            let j =
              match Journal.take () with
              | Some j -> j
              | None -> fst (Trg_eval.Replay.record ~algo:journal_algo r)
            in
            Some (path, j, save_journal path j)
        in
        (e, journal)
      | _ ->
        Log.err (fun m ->
            m "explain: give all of --program/--layout/--trace, or none");
        exit 2
    in
    (* Every failure mode of loading or simulating must still leave a
       Failed-status manifest, so each known exception family is mapped
       to the same exit path rather than escaping as a backtrace. *)
    let failed msg =
      Log.err (fun m -> m "%s" msg);
      finish_run ~command:"explain" ~config metrics_out Trg_obs.Manifest.Failed 1
    in
    match Trg_obs.Span.with_ "explain" body with
    | e, jopt ->
      Trg_eval.Explain.print ~top e;
      (match json_out with
      | None -> ()
      | Some path ->
        Trg_obs.Manifest.write path (Trg_eval.Explain.to_json ~top e);
        Printf.printf "\nwrote JSON report %s\n" path);
      (match jopt with
      | None -> ()
      | Some (path, j, _) ->
        Printf.printf "\nwrote decision journal %s (%d steps)\n" path
          (Array.length j.Journal.decisions));
      finish_run ~command:"explain" ~config
        ~explain:(Trg_eval.Explain.summary_json e)
        ?journal:(Option.map (fun (_, _, member) -> member) jopt)
        metrics_out Trg_obs.Manifest.Ok 0
    | exception Failure msg -> failed msg
    | exception Invalid_argument msg -> failed msg
    | exception Sys_error msg -> failed msg
    | exception Trg_util.Fault.Error e -> failed (Trg_util.Fault.to_string e)
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ verbose_term $ bench $ quick $ algos $ train $ raw $ top
      $ intervals $ json_out $ program_f $ layout_f $ trace_f $ cache_term
      $ policy_term $ cost_engine_term $ metrics_term $ journal_out_term
      $ journal_algo_term)

let compare_cmd =
  let doc =
    "Diff the deterministic metrics (counters, gauges, histogram totals) of \
     two run manifests; exit 1 when any metric drifts beyond the tolerance.  \
     Wall-clock spans and GC statistics are never compared, so machine noise \
     passes and counter drift fails."
  in
  let file_a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline manifest.")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CURRENT" ~doc:"Manifest to check against the baseline.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.
      & info [ "tolerance" ] ~docv:"REL"
          ~doc:"Allowed relative drift per metric (e.g. 0.02 for 2%).")
  in
  let only =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"PREFIX"
          ~doc:
            "Restrict the comparison to metrics under $(docv) (repeatable). \
             A prefix matches the full metric name (e.g. counters/sim/) or \
             the name after its kind segment (e.g. sim/).  Use to compare \
             the layout-deterministic surface between runs whose \
             work-counter profiles legitimately differ, such as \
             $(b,--cost-engine full) vs $(b,incr).")
  in
  let run file_a file_b tolerance only =
    let load_validated file =
      let fail msg =
        Log.err (fun m -> m "%s: %s" file msg);
        exit 2
      in
      let json =
        match Trg_obs.Manifest.load file with Ok j -> j | Error msg -> fail msg
      in
      (match Trg_obs.Manifest.validate json with
      | Ok () -> ()
      | Error msg -> fail msg);
      json
    in
    let base = load_validated file_a and current = load_validated file_b in
    let selected (d : Trg_obs.Manifest.drift) =
      Trg_obs.Manifest.selected ~only d.Trg_obs.Manifest.metric
    in
    match List.filter selected (Trg_obs.Manifest.diff ~tolerance base current) with
    | [] ->
      Printf.printf "manifests agree: no metric drift beyond %.4f (%s vs %s)\n"
        tolerance file_a file_b
    | drifts ->
      let module Table = Trg_util.Table in
      Printf.printf "%d metric(s) drifted beyond %.4f:\n\n" (List.length drifts)
        tolerance;
      Table.print
        ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
        ~header:[ "metric"; "baseline"; "current"; "rel" ]
        (List.map
           (fun d ->
             let cell = function
               | Some v -> Table.fmt_float v
               | None -> "(absent)"
             in
             [
               d.Trg_obs.Manifest.metric;
               cell d.Trg_obs.Manifest.base;
               cell d.Trg_obs.Manifest.current;
               (if Float.is_integer d.Trg_obs.Manifest.rel || d.Trg_obs.Manifest.rel < infinity
                then Table.fmt_pct d.Trg_obs.Manifest.rel
                else "new/gone");
             ])
           drifts);
      exit 1
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ file_a $ file_b $ tolerance $ only)

let stats_cmd =
  let doc =
    "Validate a telemetry run manifest (from $(b,--metrics-out)) and \
     pretty-print it as ASCII tables, a machine-readable JSON summary \
     ($(b,--json)), or a Chrome trace ($(b,--chrome-trace))."
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MANIFEST" ~doc:"Manifest file to render.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print a machine-readable summary (schema, status, counters, \
             gauges, histogram totals, span tallies) as one JSON object on \
             stdout instead of tables.")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Export the manifest's spans as Chrome trace-event JSON to \
             $(docv) (loadable in chrome://tracing or Perfetto).")
  in
  let only =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"PREFIX"
          ~doc:
            "Show only metrics under $(docv) (repeatable).  A prefix \
             matches the full metric name (e.g. counters/sim/) or the name \
             after its kind segment (e.g. sim/) — the same semantics as \
             $(b,trgplace compare --only).  Applies to counters, gauges \
             and histograms, in both table and $(b,--json) output.")
  in
  let run render_tables file json_flag chrome_out only =
    let metric_selected kind name =
      Trg_obs.Manifest.selected ~only (kind ^ "/" ^ name)
    in
    let fail msg =
      Log.err (fun m -> m "%s: %s" file msg);
      exit 1
    in
    let json =
      match Trg_obs.Manifest.load file with Ok j -> j | Error msg -> fail msg
    in
    (match Trg_obs.Manifest.validate json with
    | Ok () -> ()
    | Error msg -> fail msg);
    (match chrome_out with
    | None -> ()
    | Some path ->
      let spans =
        match Option.bind (J.member "spans" json) J.to_list with
        | Some l -> l
        | None -> []
      in
      Trg_obs.Manifest.write path (Trg_obs.Span.chrome_of_spans spans);
      if not json_flag then
        Printf.printf "wrote Chrome trace %s (%d spans)\n" path
          (List.length spans));
    if json_flag then (
      let member_or k d = match J.member k json with Some v -> v | None -> d in
      let filtered kind k =
        match J.member k json with
        | Some (J.Obj fields) ->
          J.Obj (List.filter (fun (name, _) -> metric_selected kind name) fields)
        | _ -> J.Obj []
      in
      let histogram_totals =
        match filtered "histograms" "histograms" with
        | J.Obj fields ->
          J.Obj
            (List.map
               (fun (k, v) ->
                 ( k,
                   match Option.bind (J.member "total" v) J.to_float with
                   | Some x -> J.Float x
                   | None -> J.Null ))
               fields)
        | _ -> J.Obj []
      in
      let span_count =
        match Option.bind (J.member "spans" json) J.to_list with
        | Some l -> List.length l
        | None -> 0
      in
      let summary =
        J.Obj
          ([
             ("schema", member_or "schema" J.Null);
             ("command", member_or "command" J.Null);
             ("status", member_or "status" J.Null);
             ("exit_code", member_or "exit_code" J.Null);
             ("counters", filtered "counters" "counters");
             ("gauges", filtered "gauges" "gauges");
             ("histogram_totals", histogram_totals);
             ("span_count", J.Int span_count);
           ]
          @
          match J.member "explain" json with
          | Some e -> [ ("explain", e) ]
          | None -> [])
      in
      print_endline (J.to_string ~indent:2 summary))
    else render_tables metric_selected json
  in
  let render_tables metric_selected json =
    let module Table = Trg_util.Table in
    let str k =
      match J.member k json with Some (J.String s) -> s | _ -> "?"
    in
    let obj_fields k =
      match J.member k json with Some (J.Obj fields) -> fields | _ -> []
    in
    let metric_fields k =
      List.filter (fun (name, _) -> metric_selected k name) (obj_fields k)
    in
    let left2 = [ Table.Left; Table.Left ] in
    Table.section (Printf.sprintf "RUN MANIFEST — %s (%s)" (str "command") (str "status"));
    let argv =
      match J.member "argv" json with
      | Some (J.List l) -> String.concat " " (List.filter_map J.to_string_opt l)
      | _ -> ""
    in
    let exit_code =
      match Option.bind (J.member "exit_code" json) J.to_int with
      | Some n -> string_of_int n
      | None -> "?"
    in
    Table.print ~align:left2 ~header:[ "run"; "value" ]
      [
        [ "schema"; str "schema" ];
        [ "status"; str "status" ];
        [ "exit code"; exit_code ];
        [ "argv"; argv ];
      ];
    (match obj_fields "config" with
    | [] -> ()
    | fields ->
      print_newline ();
      Table.print ~align:left2 ~header:[ "option"; "value" ]
        (List.map (fun (k, v) -> [ k; J.to_string v ]) fields));
    (match obj_fields "gc" with
    | [] -> ()
    | fields ->
      print_newline ();
      Table.print ~header:[ "gc"; "value" ]
        (List.map
           (fun (k, v) ->
             let rendered =
               match J.to_float v with
               | Some x -> Table.fmt_int (int_of_float x)
               | None -> J.to_string v
             in
             [ k; rendered ])
           fields));
    (match metric_fields "counters" with
    | [] -> ()
    | fields ->
      print_newline ();
      Table.print ~header:[ "counter"; "value" ]
        (List.map
           (fun (k, v) ->
             [ k; (match J.to_int v with Some n -> Table.fmt_int n | None -> "?") ])
           fields));
    (match metric_fields "gauges" with
    | [] -> ()
    | fields ->
      print_newline ();
      Table.print ~header:[ "gauge"; "value" ]
        (List.map
           (fun (k, v) ->
             [ k; (match J.to_float v with Some x -> Table.fmt_float x | None -> "?") ])
           fields));
    (match metric_fields "histograms" with
    | [] -> ()
    | fields ->
      print_newline ();
      Table.print ~align:left2 ~header:[ "histogram"; "total"; "bucket counts" ]
        (List.map
           (fun (k, v) ->
             let total =
               match Option.bind (J.member "total" v) J.to_int with
               | Some n -> Table.fmt_int n
               | None -> "?"
             in
             let counts =
               match Option.bind (J.member "counts" v) J.to_list with
               | Some l ->
                 String.concat " "
                   (List.map
                      (fun c ->
                        match J.to_int c with Some n -> string_of_int n | None -> "?")
                      l)
               | None -> "?"
             in
             [ k; total; counts ])
           fields));
    (match Option.bind (J.member "spans" json) J.to_list with
    | None | Some [] -> ()
    | Some spans ->
      print_newline ();
      Table.print
        ~align:[ Table.Left; Table.Right; Table.Right; Table.Left ]
        ~header:[ "span"; "wall ms"; "alloc words"; "outcome" ]
        (List.map
           (fun s ->
             let field k = J.member k s in
             let name =
               match Option.bind (field "name") J.to_string_opt with
               | Some n -> n
               | None -> "?"
             in
             let depth =
               match Option.bind (field "depth") J.to_int with Some d -> d | None -> 0
             in
             let wall =
               match Option.bind (field "wall_s") J.to_float with
               | Some w -> Table.fmt_float ~decimals:3 (1000. *. w)
               | None -> "?"
             in
             let alloc =
               match Option.bind (field "alloc_words") J.to_float with
               | Some a -> Table.fmt_int (int_of_float a)
               | None -> "?"
             in
             let outcome =
               match Option.bind (field "outcome") J.to_string_opt with
               | Some o -> o
               | None -> "?"
             in
             [ String.make (2 * depth) ' ' ^ name; wall; alloc; outcome ])
           spans))
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const (run render_tables) $ file $ json_flag $ chrome_out $ only)

let replay_cmd =
  let doc =
    "Re-drive a recorded merge-decision journal (from $(b,--journal-out)) \
     through the placement search in forced-choice mode and verify every \
     claim bit-exactly: each step's pair, weight, runner-up and margin, \
     GBSC's offsets and conflict costs, the summed decision weight and \
     the final layout's CRC-32.  Offsets and costs are recomputed with \
     the $(b,--cost-engine) in force, so replaying one journal under \
     $(b,full) and $(b,incr) is also a differential witness that the two \
     engines agree decision-by-decision.  Exit 0 when every claim \
     verifies, 1 on any mismatch, 2 when the journal cannot be loaded."
  in
  let journal_f =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL" ~doc:"Journal file to verify.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the verification report as one JSON object.")
  in
  let run verbose journal_f json_flag cost_engine =
    setup_logs verbose;
    Trg_place.Cost.set_engine cost_engine;
    let j =
      match Journal.load_result journal_f with
      | Ok j -> j
      | Error e ->
        Log.err (fun m -> m "%s: %s" journal_f (Trg_util.Fault.to_string e));
        exit 2
    in
    let report =
      match Trg_eval.Replay.verify j with
      | r -> r
      | exception Failure msg ->
        (* Not a mismatch: the journal refers to something this build
           cannot reconstruct (unknown benchmark or algorithm). *)
        Log.err (fun m -> m "replay: %s" msg);
        exit 2
    in
    if json_flag then
      print_endline (J.to_string ~indent:2 (Trg_eval.Replay.report_json report))
    else begin
      Printf.printf "replay %s: %s on %s, %d steps, engine %s (recorded %s)\n"
        journal_f j.Journal.meta.Journal.algo j.Journal.meta.Journal.source
        (Array.length j.Journal.decisions)
        report.Trg_eval.Replay.r_engine j.Journal.meta.Journal.engine;
      match report.Trg_eval.Replay.r_mismatches with
      | [] ->
        Printf.printf
          "verified bit-identical: layout CRC %08x, total decision weight %g\n"
          j.Journal.claims.Journal.layout_crc
          j.Journal.claims.Journal.total_weight
      | ms -> List.iter (fun msg -> Log.err (fun m -> m "replay: %s" msg)) ms
    end;
    if not (Trg_eval.Replay.ok report) then exit 1
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ verbose_term $ journal_f $ json_flag $ cost_engine_term)

let why_cmd =
  let doc =
    "Answer \"why is this procedure placed next to that one?\" from a \
     merge-decision journal: the step at which the two procedures' groups \
     were joined, the winning edge weight, the runner-up candidate it \
     beat and by what margin, the chosen cache-set offset — joined \
     against the TRG edge weight and the conflict matrix of the final \
     layout (what the decision cost in conflict misses).  With one \
     procedure, shows its group's full merge history."
  in
  let bench =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark the placement runs on.")
  in
  let proc1 =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"PROC" ~doc:"Procedure name or id.")
  in
  let proc2 =
    Arg.(
      value
      & pos 2 (some string) None
      & info [] ~docv:"PROC2"
          ~doc:"Second procedure: ask when and why it joined $(i,PROC)'s group.")
  in
  let algo =
    let doc = "Placement algorithm to interrogate." in
    Arg.(value & opt journal_algos "gbsc" & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let journal_f =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Use a previously recorded journal instead of recording one \
             now.  Its source benchmark must be $(i,BENCH); its algorithm \
             overrides $(b,--algo).")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the answer as one JSON object.")
  in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"Conflict rows to show.")
  in
  let run verbose bench proc1 proc2 algo journal_f json_flag top cache
      cost_engine =
    setup_logs verbose;
    Trg_place.Cost.set_engine cost_engine;
    let shape = shapes_of_names [ bench ] |> List.hd in
    let body () =
      let j, runner, layout =
        match journal_f with
        | Some file ->
          let j =
            match Journal.load_result file with
            | Ok j -> j
            | Error e -> failwith (file ^ ": " ^ Trg_util.Fault.to_string e)
          in
          if j.Journal.meta.Journal.source <> bench then
            failwith
              (Printf.sprintf
                 "why: journal %s was recorded on %S, not %S" file
                 j.Journal.meta.Journal.source bench);
          let runner = Trg_eval.Replay.prepare_for j.Journal.meta in
          (* Forced-choice replay: cheap, and fails loudly if the journal
             does not match this build's profile. *)
          let layout =
            Trg_eval.Replay.layout_for ~decisions:j.Journal.decisions
              ~algo:j.Journal.meta.Journal.algo runner
          in
          (j, runner, layout)
        | None ->
          let gconfig = Trg_place.Gbsc.default_config ~cache () in
          let runner = Trg_eval.Runner.prepare ~config:gconfig shape in
          let j, layout = Trg_eval.Replay.record ~algo runner in
          (j, runner, layout)
      in
      let program = Trg_eval.Runner.program runner in
      let resolve s =
        match Trg_program.Program.find_by_name program s with
        | Some p -> p
        | None -> (
          match int_of_string_opt s with
          | Some p when p >= 0 && p < Trg_program.Program.n_procs program -> p
          | Some p ->
            failwith
              (Printf.sprintf "why: procedure id %d out of range (0..%d)" p
                 (Trg_program.Program.n_procs program - 1))
          | None -> failwith (Printf.sprintf "why: unknown procedure %S" s))
      in
      let p = resolve proc1 and q = Option.map resolve proc2 in
      (* The conflict matrix comes from the layout the journal actually
         produced, normalised the same way [explain] normalises. *)
      let cache = runner.Trg_eval.Runner.config.Trg_place.Gbsc.cache in
      let aligned =
        Trg_program.Layout.line_align
          ~line_size:cache.Trg_cache.Config.line_size
          ~n_sets:(Trg_cache.Config.n_sets cache) program layout
      in
      let attrib =
        Trg_cache.Attrib.simulate program aligned cache
          runner.Trg_eval.Runner.test
      in
      let trg_weight =
        Trg_profile.Graph.weight
          runner.Trg_eval.Runner.prof.Trg_place.Gbsc.select.Trg_profile.Trg
            .graph
      in
      Trg_eval.Why.analyze ~journal:j ~trg_weight ~attrib
        ~proc_name:(Trg_program.Program.name program) ~p ?q ()
    in
    match Trg_obs.Span.with_ "why" body with
    | w ->
      if json_flag then
        print_endline (J.to_string ~indent:2 (Trg_eval.Why.to_json ~top w))
      else Trg_eval.Why.print ~top w
    | exception Failure msg ->
      Log.err (fun m -> m "%s" msg);
      exit 1
  in
  Cmd.v (Cmd.info "why" ~doc)
    Term.(
      const run $ verbose_term $ bench $ proc1 $ proc2 $ algo $ journal_f
      $ json_flag $ top $ cache_term $ cost_engine_term)

let show_layout_cmd =
  let doc = "Show a layout's cache mapping (per-set occupants)." in
  let program_f =
    Arg.(required & opt (some string) None & info [ "program"; "p" ] ~docv:"FILE" ~doc:"Program file.")
  in
  let layout_f =
    Arg.(required & opt (some string) None & info [ "layout"; "l" ] ~docv:"FILE" ~doc:"Layout file.")
  in
  let trace_f =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace"; "t" ] ~docv:"FILE"
          ~doc:"Optional profile trace; when given, only popular procedures are shown.")
  in
  let run program_f layout_f trace_f cache =
    let program = retrying (fun () -> Trg_program.Serial.load_program program_f) in
    let layout =
      retrying (fun () -> Trg_program.Serial.load_layout program layout_f)
    in
    let only =
      match trace_f with
      | None -> None
      | Some path ->
        let trace = retrying (fun () -> Trg_trace.Io.load path) in
        let stats =
          Trg_trace.Tstats.compute ~n_procs:(Trg_program.Program.n_procs program) trace
        in
        let pop = Trg_profile.Popularity.select program stats in
        Some (Trg_profile.Popularity.keep pop)
    in
    print_string (Trg_place.View.cache_map ?only program cache layout);
    print_endline "occupancy:";
    print_string (Trg_place.View.occupancy_summary ?only program cache layout)
  in
  Cmd.v (Cmd.info "show-layout" ~doc)
    Term.(const run $ program_f $ layout_f $ trace_f $ cache_term)

let simtest_cmd =
  let doc =
    "Deterministic simulation testing of the evaluation pool: run seeded \
     fault schedules (worker crashes, torn and corrupted reply frames, \
     stuck workers, spurious wakeups, clock skew) against the in-process \
     simulator and check that every work unit completes or is attributed \
     to a typed fault, bit-for-bit reproducibly.  A reported seed replays \
     forever: $(b,trgplace simtest --seed N --schedules 1)."
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Base seed; schedule $(i,k) uses seed $(docv)+$(i,k).")
  in
  let schedules =
    Arg.(
      value & opt int 16
      & info [ "schedules" ] ~docv:"N" ~doc:"Number of random fault schedules to run.")
  in
  let units =
    Arg.(
      value & opt int 12
      & info [ "units" ] ~docv:"N" ~doc:"Work units per simulated batch.")
  in
  let jobs =
    Arg.(
      value & opt int 3
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Simulated workers.  Fixed (not CPU-detected) so a seed replays \
             identically on any machine.")
  in
  let retries =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:"Pool retries for units lost to injected infrastructure faults.")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-unit deadline in virtual seconds; frees workers hit by a \
             Stuck fault.")
  in
  let run seed schedules units jobs retries timeout metrics_out =
    if metrics_out <> None then Trg_obs.Span.set_enabled true;
    let config =
      [
        ("seed", J.Int seed);
        ("schedules", J.Int schedules);
        ("units", J.Int units);
        ("jobs", J.Int jobs);
        ("retries", J.Int retries);
        ("timeout", J.Float timeout);
      ]
    in
    let finish = finish_run ~command:"simtest" ~config metrics_out in
    if schedules < 1 || units < 1 || jobs < 1 || retries < 0 || timeout <= 0. then begin
      Log.err (fun m -> m "simtest: all sizes must be positive (retries >= 0)");
      exit 2
    end;
    let module Metrics = Trg_obs.Metrics in
    let module Pool = Trg_eval.Pool in
    let module Sim = Trg_eval.Pool_sim in
    let module Table = Trg_util.Table in
    let unit_runs = Metrics.counter "simtest/unit_runs" in
    let tasks =
      List.init units (fun i ->
          {
            Pool.key = Printf.sprintf "unit%d" i;
            work =
              (fun () ->
                Metrics.incr unit_runs;
                (i * 0x9E3779B1) land 0xFFFFFF);
          })
    in
    let violations = ref [] in
    let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let cnt (d : Metrics.snapshot) name =
      Option.value (List.assoc_opt name d.Metrics.snap_counters) ~default:0
    in
    let body () =
      Table.section "SIMTEST — seeded fault schedules against the pool simulator";
      let rows =
        List.init schedules (fun k ->
            let s = seed + k in
            let sched = Sim.random_schedule ~seed:s ~units in
            let go () =
              Sim.run ~jobs ~timeout ~retries ~schedule:sched ~seed:s tasks
            in
            let before = Metrics.snapshot () in
            let r1 = go () in
            let mid = Metrics.snapshot () in
            let r2 = go () in
            let after = Metrics.snapshot () in
            let d1 = Metrics.delta ~before ~after:mid in
            let d2 = Metrics.delta ~before:mid ~after in
            if List.length r1 <> units then
              violate "seed %d: %d of %d units reported" s (List.length r1) units;
            let same_outcomes =
              List.length r1 = List.length r2
              && List.for_all2
                   (fun (a : int Pool.outcome) (b : int Pool.outcome) ->
                     a.key = b.key && a.value = b.value && a.output = b.output)
                   r1 r2
            in
            if not same_outcomes then
              violate "seed %d: outcomes differ between identical runs" s;
            if d1.Metrics.snap_counters <> d2.Metrics.snap_counters then
              violate "seed %d: counter deltas differ between identical runs" s;
            if d1.Metrics.snap_histograms <> d2.Metrics.snap_histograms then
              violate "seed %d: histogram deltas differ between identical runs" s;
            let ok =
              List.length
                (List.filter (fun (o : int Pool.outcome) -> Result.is_ok o.value) r1)
            in
            let injected =
              cnt d1 "pool/sim/injected_crashes"
              + cnt d1 "pool/sim/injected_torn_writes"
              + cnt d1 "pool/sim/injected_corruptions"
              + cnt d1 "pool/sim/injected_stucks"
            in
            [
              string_of_int s;
              string_of_int injected;
              string_of_int (cnt d1 "pool/respawns");
              string_of_int (cnt d1 "pool/retries");
              Printf.sprintf "%d/%d" ok units;
              (if same_outcomes then "yes" else "NO");
            ])
      in
      Table.print
        ~header:[ "seed"; "faults"; "respawns"; "retries"; "ok"; "deterministic" ]
        rows
    in
    match Trg_obs.Span.with_ "simtest" body with
    | () -> (
      match !violations with
      | [] ->
        Printf.printf "simtest: %d schedules, no violations\n" schedules;
        finish Trg_obs.Manifest.Ok 0
      | vs ->
        List.iter (fun v -> Log.err (fun m -> m "%s" v)) (List.rev vs);
        finish Trg_obs.Manifest.Failed 1)
    | exception Failure msg ->
      (* A simulated deadlock lands here: the engine hung where production
         would hang.  That is exactly the bug class this command exists to
         catch, so it is a failure, not an error in the harness. *)
      Log.err (fun m -> m "simtest: %s" msg);
      finish Trg_obs.Manifest.Failed 1
  in
  Cmd.v
    (Cmd.info "simtest" ~doc)
    Term.(
      const run $ seed $ schedules $ units $ jobs $ retries $ timeout $ metrics_term)

(* --- perf: the continuous performance ledger -------------------------- *)

module Perf = Trg_obs.Perf
module Perfrun = Trg_eval.Perfrun

(* The revision a measurement belongs to: an explicit override (CI sets
   it so shallow checkouts don't matter), else git, else "unknown" —
   never a hard failure, a ledger outside a checkout is still useful. *)
let git_rev () =
  match Sys.getenv_opt "TRGPLACE_GIT_REV" with
  | Some r when String.trim r <> "" -> String.trim r
  | Some _ | None -> (
    match
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      (Unix.close_process_in ic, line)
    with
    | Unix.WEXITED 0, line when line <> "" -> line
    | _ -> "unknown"
    | exception (Unix.Unix_error _ | Sys_error _) -> "unknown")

let ledger_term =
  let doc =
    "Perf ledger file: append-only JSONL, one CRC-guarded record per \
     line.  Damaged lines are skipped with a warning, never fatal."
  in
  Arg.(
    value
    & opt string "BENCH_history.jsonl"
    & info [ "ledger" ] ~docv:"FILE" ~doc)

let perf_reps_term =
  let doc = "Repetitions per unit behind each median/MAD." in
  Arg.(value & opt int 5 & info [ "reps" ] ~docv:"N" ~doc)

let perf_bench_term =
  let doc =
    "Benchmarks to measure (repeatable).  Default: the small workload."
  in
  Arg.(value & opt_all string [] & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let perf_jobs_term =
  let doc =
    "Workers for the pool round-trip unit.  Fixed at 2 by default (not \
     CPU-detected) so recorded counters and timings are comparable \
     across machines."
  in
  Arg.(value & opt int 2 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let load_ledger path =
  match Perf.load_result path with
  | Error e ->
    Log.err (fun m -> m "%s: %s" path (Trg_util.Fault.to_string e));
    exit 2
  | Ok (records, skipped) ->
    List.iter
      (fun { Perf.line; fault } ->
        Log.warn (fun m ->
            m "%s:%d: skipping damaged ledger line (%s)" path line
              (Trg_util.Fault.to_string fault)))
      skipped;
    records

let perf_measure ~reps ~jobs ~benches ~policy =
  let benches = match benches with [] -> Perfrun.default_benches | l -> l in
  if reps < 1 || jobs < 1 then begin
    Log.err (fun m -> m "perf: --reps and --jobs must be positive");
    exit 2
  end;
  List.iter (fun n -> ignore (shapes_of_names [ n ])) benches;
  Perfrun.measure ~reps ~jobs ~benches ~policy ~rev:(git_rev ())
    ~time_s:(Trg_util.Clock.wall ()) ()

let print_record_table (r : Perf.record) =
  let module Table = Trg_util.Table in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "unit"; "wall median"; "wall MAD"; "alloc median" ]
    (List.map
       (fun (b : Perf.bench) ->
         [
           b.Perf.b_name;
           Printf.sprintf "%.3f ms" (1e3 *. b.Perf.wall_s.Perf.median);
           Printf.sprintf "%.3f ms" (1e3 *. b.Perf.wall_s.Perf.mad);
           Table.fmt_int (int_of_float b.Perf.alloc_w.Perf.median);
         ])
       r.Perf.benches)

let perf_record_cmd =
  let doc =
    "Measure the perf suite on this tree and append one record (median + \
     MAD over N repetitions of wall/alloc per unit, plus the \
     deterministic work counters) to the ledger."
  in
  let run verbose ledger reps benches jobs policy =
    setup_logs verbose;
    let r = perf_measure ~reps ~jobs ~benches ~policy in
    (match Trg_util.Fault.result (fun () -> Perf.append ledger r) with
    | Ok () -> ()
    | Error e ->
      Log.err (fun m -> m "%s: %s" ledger (Trg_util.Fault.to_string e));
      exit 1);
    Trg_util.Table.section
      (Printf.sprintf "PERF RECORD — rev %s, %d reps, policy %s" r.Perf.rev
         r.Perf.reps
         (Trg_cache.Policy.to_string policy));
    print_record_table r;
    Printf.printf "\nappended to %s (%d units, %d counters)\n" ledger
      (List.length r.Perf.benches)
      (List.length r.Perf.counters)
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(
      const run $ verbose_term $ ledger_term $ perf_reps_term
      $ perf_bench_term $ perf_jobs_term $ policy_term)

(* Sparklines want bucket-count-shaped ints; medians are scaled into
   [1, 1000] against the series maximum so relative level survives. *)
let spark_of_series values =
  let max_v = List.fold_left Float.max 0. values in
  let scaled =
    List.map
      (fun v ->
        if max_v <= 0. then 0 else max 1 (int_of_float (1000. *. v /. max_v)))
      values
  in
  Trg_eval.Explain.sparkline (Array.of_list scaled)

let perf_report_cmd =
  let doc =
    "Render the ledger's performance trajectory: per unit, the latest \
     median wall time and a sparkline of its history (or the whole \
     ledger as JSON with $(b,--json))."
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the ledger as one JSON document instead of tables.")
  in
  let run verbose ledger json_flag policy =
    setup_logs verbose;
    let records = load_ledger ledger in
    if json_flag then
      print_endline
        (J.to_string ~indent:2
           (J.Obj
              [
                ("schema", J.String (Perf.schema ^ "-report"));
                ("ledger", J.String ledger);
                ("records", J.List (List.map Perf.record_json records));
              ]))
    else begin
      match records with
      | [] -> Printf.printf "ledger %s is empty\n" ledger
      | _ ->
        let module Table = Trg_util.Table in
        let last = List.nth records (List.length records - 1) in
        (* The active policy names the session configuration these
           records are comparable against (it feeds config_crc). *)
        Table.section
          (Printf.sprintf
             "PERF LEDGER — %s (%d records, latest rev %s, policy %s)"
             ledger (List.length records) last.Perf.rev
             (Trg_cache.Policy.to_string policy));
        let names =
          List.sort_uniq compare
            (List.concat_map
               (fun (r : Perf.record) ->
                 List.map (fun (b : Perf.bench) -> b.Perf.b_name)
                   r.Perf.benches)
               records)
        in
        Table.print
          ~align:
            [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
          ~header:[ "unit"; "runs"; "wall median"; "wall MAD"; "trend" ]
          (List.map
             (fun name ->
               let series =
                 List.filter_map
                   (fun (r : Perf.record) ->
                     List.find_opt
                       (fun (b : Perf.bench) -> b.Perf.b_name = name)
                       r.Perf.benches)
                   records
               in
               let latest = List.nth series (List.length series - 1) in
               [
                 name;
                 string_of_int (List.length series);
                 Printf.sprintf "%.3f ms"
                   (1e3 *. latest.Perf.wall_s.Perf.median);
                 Printf.sprintf "%.3f ms" (1e3 *. latest.Perf.wall_s.Perf.mad);
                 spark_of_series
                   (List.map
                      (fun (b : Perf.bench) -> b.Perf.wall_s.Perf.median)
                      series);
               ])
             names)
    end
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ verbose_term $ ledger_term $ json_flag $ policy_term)

let perf_diff_cmd =
  let doc =
    "Compare the ledger's last two records: per-unit wall-median change \
     and every deterministic counter that moved."
  in
  let run verbose ledger =
    setup_logs verbose;
    let records = load_ledger ledger in
    match List.rev records with
    | current :: previous :: _ ->
      let module Table = Trg_util.Table in
      Table.section
        (Printf.sprintf "PERF DIFF — %s (rev %s) vs %s (rev %s)"
           (Printf.sprintf "#%d" (List.length records))
           current.Perf.rev
           (Printf.sprintf "#%d" (List.length records - 1))
           previous.Perf.rev);
      Table.print
        ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
        ~header:[ "unit"; "previous"; "current"; "change" ]
        (List.filter_map
           (fun (b : Perf.bench) ->
             Option.map
               (fun (p : Perf.bench) ->
                 let prev = p.Perf.wall_s.Perf.median
                 and cur = b.Perf.wall_s.Perf.median in
                 [
                   b.Perf.b_name;
                   Printf.sprintf "%.3f ms" (1e3 *. prev);
                   Printf.sprintf "%.3f ms" (1e3 *. cur);
                   (if prev > 0. then
                      Printf.sprintf "%+.1f%%" (100. *. ((cur /. prev) -. 1.))
                    else "-");
                 ])
               (List.find_opt
                  (fun (p : Perf.bench) -> p.Perf.b_name = b.Perf.b_name)
                  previous.Perf.benches))
           current.Perf.benches);
      let moved =
        List.filter_map
          (fun (name, v) ->
            match List.assoc_opt name previous.Perf.counters with
            | Some p when p <> v -> Some [ name; string_of_int p; string_of_int v ]
            | Some _ -> None
            | None -> Some [ name; "(absent)"; string_of_int v ])
          current.Perf.counters
      in
      if moved <> [] then begin
        print_newline ();
        Table.print
          ~align:[ Table.Left; Table.Right; Table.Right ]
          ~header:[ "counter"; "previous"; "current" ]
          moved
      end
    | _ ->
      Log.err (fun m ->
          m "perf diff: ledger %s needs at least two records" ledger);
      exit 2
  in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const run $ verbose_term $ ledger_term)

let perf_gate_cmd =
  let doc =
    "Measure this tree and compare it against the ledger's recent window \
     with noise-aware tolerance bands (baseline + x MAD for wall/alloc \
     medians, exact-by-default comparison for deterministic counters).  \
     Exits 1 naming the regressed unit and metric."
  in
  let window_term =
    Arg.(
      value & opt int 5
      & info [ "window" ] ~docv:"K"
          ~doc:"Ledger records forming the baseline window.")
  in
  let mad_factor_term =
    Arg.(
      value & opt float 6.
      & info [ "mad-factor" ] ~docv:"X"
          ~doc:"Band width in window MADs above the baseline median.")
  in
  let min_band_term =
    Arg.(
      value & opt float 0.25
      & info [ "min-band" ] ~docv:"REL"
          ~doc:
            "Relative band floor — keeps a near-zero-noise window from \
             flagging ordinary scheduler jitter.")
  in
  let counter_tol_term =
    Arg.(
      value & opt float 0.
      & info [ "counter-tolerance" ] ~docv:"REL"
          ~doc:"Allowed relative drift for deterministic counters.")
  in
  let run verbose ledger reps benches jobs policy window mad_factor min_band
      counter_tolerance =
    setup_logs verbose;
    if window < 1 then begin
      Log.err (fun m -> m "perf gate: --window must be positive");
      exit 2
    end;
    let history = load_ledger ledger in
    if history = [] then begin
      Log.err (fun m ->
          m "perf gate: ledger %s has no records to gate against" ledger);
      exit 2
    end;
    let current = perf_measure ~reps ~jobs ~benches ~policy in
    let verdicts =
      Perf.gate ~window ~mad_factor ~min_band ~counter_tolerance ~history
        current
    in
    let module Table = Trg_util.Table in
    Table.section
      (Printf.sprintf "PERF GATE — rev %s vs last %d of %s" current.Perf.rev
         (min window (List.length history))
         ledger);
    Table.print
      ~align:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Left ]
      ~header:[ "unit"; "metric"; "current"; "baseline"; "limit"; "ok" ]
      (List.map
         (fun (v : Perf.verdict) ->
           let fmt x =
             if v.Perf.v_metric = "wall_s" then
               Printf.sprintf "%.3f ms" (1e3 *. x)
             else Table.fmt_float x
           in
           [
             v.Perf.v_bench;
             v.Perf.v_metric;
             fmt v.Perf.v_current;
             fmt v.Perf.v_baseline;
             (if v.Perf.v_metric = "counter" then
                Printf.sprintf "±%.4f" v.Perf.v_limit
              else fmt v.Perf.v_limit);
             (if v.Perf.v_ok then "yes" else "NO");
           ])
         verdicts);
    match Perf.regressions verdicts with
    | [] ->
      Printf.printf "\nperf gate: %d checks, no regressions\n"
        (List.length verdicts)
    | bad ->
      List.iter
        (fun (v : Perf.verdict) ->
          Log.err (fun m ->
              m "perf gate: REGRESSION %s %s: current %g exceeds %s %g"
                v.Perf.v_bench v.Perf.v_metric v.Perf.v_current
                (if v.Perf.v_metric = "counter" then "baseline" else "limit")
                (if v.Perf.v_metric = "counter" then v.Perf.v_baseline
                 else v.Perf.v_limit)))
        bad;
      exit 1
  in
  Cmd.v (Cmd.info "gate" ~doc)
    Term.(
      const run $ verbose_term $ ledger_term $ perf_reps_term
      $ perf_bench_term $ perf_jobs_term $ policy_term $ window_term
      $ mad_factor_term $ min_band_term $ counter_tol_term)

let perf_cmd =
  let doc =
    "Continuous performance ledger: record benchmark sessions, render \
     their trajectory, and gate changes with noise-aware bands."
  in
  Cmd.group (Cmd.info "perf" ~doc)
    [ perf_record_cmd; perf_report_cmd; perf_diff_cmd; perf_gate_cmd ]

let cmds =
  [
    gen_cmd;
    place_cmd;
    simulate_cmd;
    export_dot_cmd;
    show_layout_cmd;
    verify_cmd;
    explain_cmd;
    replay_cmd;
    why_cmd;
    compare_cmd;
    stats_cmd;
    simtest_cmd;
    perf_cmd;
    experiment "table1" "Reproduce Table 1 (benchmark characteristics)."
      Trg_eval.Report.table1;
    experiment "characterize" "Reuse-distance workload characterisation."
      Trg_eval.Report.characterize;
    experiment "figure5" "Reproduce Figure 5 (miss-rate distributions)."
      Trg_eval.Report.figure5;
    experiment "figure6" "Reproduce Figure 6 (metric/miss correlation)."
      Trg_eval.Report.figure6;
    experiment "padding" "Reproduce the Section 5.1 padding example."
      Trg_eval.Report.padding;
    experiment "setassoc" "Reproduce the Section 6 set-associative extension."
      Trg_eval.Report.setassoc;
    experiment "ablation" "Ablate GBSC's design choices." Trg_eval.Report.ablation;
    experiment "splitting" "Procedure splitting combined with GBSC."
      Trg_eval.Report.splitting;
    experiment "paging" "Page-locality linearisation variant (Section 4.3)."
      Trg_eval.Report.paging;
    experiment "sampling" "Sampled-profile quality (Section 4.4 practicality)."
      Trg_eval.Report.sampling;
    experiment "blocks" "Intra-procedure basic-block reordering."
      Trg_eval.Report.blocks;
    experiment "online" "Online (streaming) vs offline profiling."
      Trg_eval.Report.online;
    experiment "headroom" "Greedy GBSC vs direct metric search (annealing)."
      Trg_eval.Report.headroom;
    experiment "hierarchy"
      "Multi-level cache hierarchies (L1/L2/L3, PLRU/QLRU) across named \
       CPU presets — the conclusion's outlook, head to head."
      Trg_eval.Report.hierarchy;
    experiment "sweep" "Cache-size sweep (Section 5.2 robustness note)."
      Trg_eval.Report.sweep;
    experiment "all" "Run every experiment in paper order." Trg_eval.Report.all;
    demo_cmd;
  ]

let () =
  let doc = "procedure placement using temporal ordering information (MICRO-30 reproduction)" in
  let info = Cmd.info "trgplace" ~version:"1.0.0" ~doc in
  (* [Failure] is the boundary for expected runtime errors (corrupt artifacts,
     strict-mode aborts): render it as a one-line message instead of letting
     cmdliner report an internal error.  Anything else is still a crash. *)
  exit
    (try Cmd.eval ~catch:false (Cmd.group info cmds)
     with Failure msg ->
       Log.err (fun m -> m "%s" msg);
       1)
