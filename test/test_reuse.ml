module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Config = Trg_cache.Config
module Sim = Trg_cache.Sim
module Reuse = Trg_cache.Reuse
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace
module Online = Trg_profile.Online
module Graph = Trg_profile.Graph
module Trg = Trg_profile.Trg
module Chunk = Trg_program.Chunk
module Walker = Trg_synth.Walker
module Gen = Trg_synth.Gen
module Bench = Trg_synth.Bench

let ev ?(kind = Event.Enter) proc offset len = Event.make ~kind ~proc ~offset ~len

(* Eight one-line procedures referenced whole. *)
let program = Program.of_sizes (Array.make 8 32)

let layout = Layout.default program

let ref_trace procs = Trace.of_list (List.map (fun p -> ev p 0 32) procs)

let reuse procs = Reuse.compute program layout ~line_size:32 (ref_trace procs)

let test_cold_only () =
  let r = reuse [ 0; 1; 2 ] in
  Alcotest.(check int) "3 refs" 3 (Reuse.total_refs r);
  Alcotest.(check int) "all cold" 3 (Reuse.cold_refs r);
  Alcotest.(check int) "misses at any size" 3 (Reuse.misses_at r 1)

let test_immediate_reuse () =
  (* 0 0 0: distances 0, 0 -> hits in any cache with >= 1 line. *)
  let r = reuse [ 0; 0; 0 ] in
  Alcotest.(check int) "1 cold" 1 (Reuse.cold_refs r);
  Alcotest.(check int) "1-line cache: only the cold miss" 1 (Reuse.misses_at r 1)

let test_known_distances () =
  (* 0 1 2 0: the final 0 has distance 2 -> hit iff c >= 3. *)
  let r = reuse [ 0; 1; 2; 0 ] in
  Alcotest.(check int) "c=3: cold only" 3 (Reuse.misses_at r 3);
  Alcotest.(check int) "c=2: one capacity miss" 4 (Reuse.misses_at r 2)

let test_repeated_scan () =
  (* Cyclic scan of 4 lines, 3 rounds: distances all 3. *)
  let procs = List.concat (List.init 3 (fun _ -> [ 0; 1; 2; 3 ])) in
  let r = reuse procs in
  Alcotest.(check int) "cold" 4 (Reuse.cold_refs r);
  Alcotest.(check int) "c=4 holds everything" 4 (Reuse.misses_at r 4);
  Alcotest.(check int) "c=3 thrashes" 12 (Reuse.misses_at r 3)

let test_percentiles () =
  let r = reuse [ 0; 1; 0; 1; 2; 3; 0 ] in
  (* finite distances: 0->1(d=1), 1->1(d=1), 0->(1,2,3 between)=3 *)
  Alcotest.(check int) "median" 1 (Reuse.percentile r 50.);
  Alcotest.(check int) "p100" 3 (Reuse.percentile r 100.)

(* The decisive property: predicted fully-associative misses equal the LRU
   simulator's, at every capacity, on real walker traces. *)
let test_matches_lru_simulator () =
  let w = Gen.generate (Bench.find "small") in
  let params = { (Bench.find "small").Trg_synth.Shape.train with Walker.target_events = 30_000 } in
  let trace = Walker.run w.Gen.program w.Gen.behavior params in
  let layout = Layout.default w.Gen.program in
  let r = Reuse.compute w.Gen.program layout ~line_size:32 trace in
  List.iter
    (fun lines ->
      let cache = Config.make ~size:(lines * 32) ~line_size:32 ~assoc:lines in
      let sim = Sim.simulate w.Gen.program layout cache trace in
      Alcotest.(check int)
        (Printf.sprintf "FA misses at %d lines" lines)
        sim.Sim.misses (Reuse.misses_at r lines))
    [ 16; 64; 256 ]

let test_histogram_sums () =
  let r = reuse [ 0; 1; 0; 1; 0 ] in
  let finite = List.fold_left (fun acc (_, c) -> acc + c) 0 (Reuse.histogram r) in
  Alcotest.(check int) "finite + cold = total" (Reuse.total_refs r)
    (finite + Reuse.cold_refs r)

(* --- Online profiling ----------------------------------------------------- *)

let test_online_equals_offline_unfiltered () =
  (* Feeding the trace's events to the online profiler must produce exactly
     the unfiltered offline TRGs. *)
  let w = Gen.generate (Bench.find "small") in
  let params = { (Bench.find "small").Trg_synth.Shape.train with Walker.target_events = 20_000 } in
  let trace = Walker.run w.Gen.program w.Gen.behavior params in
  let chunks = Chunk.make ~chunk_size:256 w.Gen.program in
  let profiler = Online.create ~capacity_bytes:16384 w.Gen.program chunks in
  Trace.iter (Online.observe profiler) trace;
  let snap = Online.finish profiler in
  let offline_select = Trg.build_select ~capacity_bytes:16384 w.Gen.program trace in
  let _, offline_place = Trg.build ~capacity_bytes:16384 w.Gen.program chunks trace in
  Alcotest.(check bool) "select graphs identical" true
    (Graph.edges snap.Online.select.Trg.graph = Graph.edges offline_select.Trg.graph);
  Alcotest.(check bool) "place graphs identical" true
    (Graph.edges snap.Online.place.Trg.graph = Graph.edges offline_place.Trg.graph);
  Alcotest.(check int) "events counted" 20_000 (Online.events_seen profiler)

let test_online_tstats_match () =
  let w = Gen.generate (Bench.find "small") in
  let params = { (Bench.find "small").Trg_synth.Shape.train with Walker.target_events = 10_000 } in
  let trace = Walker.run w.Gen.program w.Gen.behavior params in
  let chunks = Chunk.make ~chunk_size:256 w.Gen.program in
  let profiler = Online.create ~capacity_bytes:16384 w.Gen.program chunks in
  Trace.iter (Online.observe profiler) trace;
  let snap = Online.finish profiler in
  let offline = Trg_trace.Tstats.compute ~n_procs:(Program.n_procs w.Gen.program) trace in
  Alcotest.(check bool) "tstats identical" true (snap.Online.tstats = offline)

let test_online_streaming_equivalence () =
  (* Streaming the walker into the profiler = tracing then feeding. *)
  let w = Gen.generate (Bench.find "small") in
  let params = { (Bench.find "small").Trg_synth.Shape.train with Walker.target_events = 10_000 } in
  let chunks = Chunk.make ~chunk_size:256 w.Gen.program in
  let streamed = Online.create ~capacity_bytes:16384 w.Gen.program chunks in
  Walker.run_streaming w.Gen.program w.Gen.behavior params ~f:(Online.observe streamed);
  let traced = Online.create ~capacity_bytes:16384 w.Gen.program chunks in
  Trace.iter (Online.observe traced) (Walker.run w.Gen.program w.Gen.behavior params);
  let a = Online.finish streamed and b = Online.finish traced in
  Alcotest.(check bool) "identical graphs" true
    (Graph.edges a.Online.select.Trg.graph = Graph.edges b.Online.select.Trg.graph)

let test_online_experiment () =
  let r = Trg_eval.Runner.prepare (Bench.find "small") in
  let res = Trg_eval.Online.run r in
  Alcotest.(check bool) "online has at least as many select edges" true
    (res.Trg_eval.Online.online_select_edges >= res.Trg_eval.Online.offline_select_edges);
  Alcotest.(check bool) "online placement competitive" true
    (res.Trg_eval.Online.online_mr <= 1.5 *. res.Trg_eval.Online.offline_mr)

let test_charact_row () =
  let r = Trg_eval.Runner.prepare (Bench.find "small") in
  let row = Trg_eval.Charact.row_of r in
  Alcotest.(check bool) "floors monotone" true
    (row.Trg_eval.Charact.fa_4k >= row.Trg_eval.Charact.fa_8k
    && row.Trg_eval.Charact.fa_8k >= row.Trg_eval.Charact.fa_16k
    && row.Trg_eval.Charact.fa_16k >= row.Trg_eval.Charact.fa_32k);
  Alcotest.(check bool) "DM above FA floor" true
    (row.Trg_eval.Charact.dm_8k >= row.Trg_eval.Charact.fa_8k -. 1e-9);
  Alcotest.(check bool) "percentiles ordered" true
    (row.Trg_eval.Charact.p50 <= row.Trg_eval.Charact.p90
    && row.Trg_eval.Charact.p90 <= row.Trg_eval.Charact.p99)

let suite =
  [
    Alcotest.test_case "cold only" `Quick test_cold_only;
    Alcotest.test_case "immediate reuse" `Quick test_immediate_reuse;
    Alcotest.test_case "known distances" `Quick test_known_distances;
    Alcotest.test_case "repeated scan" `Quick test_repeated_scan;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "matches LRU simulator" `Quick test_matches_lru_simulator;
    Alcotest.test_case "histogram sums" `Quick test_histogram_sums;
    Alcotest.test_case "online = offline unfiltered" `Quick test_online_equals_offline_unfiltered;
    Alcotest.test_case "online tstats match" `Quick test_online_tstats_match;
    Alcotest.test_case "online streaming equivalence" `Quick test_online_streaming_equivalence;
    Alcotest.test_case "online experiment" `Quick test_online_experiment;
    Alcotest.test_case "charact row" `Quick test_charact_row;
  ]

(* --- Two-level hierarchy -------------------------------------------------- *)

(* An 8 KB direct-mapped L1 over a 64 KB 4-way L2 with 64-byte lines, at
   1 / 10 / 100 cycles. *)
let two_levels ?(l2_line = 64) () =
  let level config hit_cycles =
    { Trg_cache.Hierarchy.config; policy = Trg_cache.Policy.Lru; hit_cycles }
  in
  Trg_cache.Hierarchy.make
    ~levels:
      [
        level (Config.make ~size:8192 ~line_size:32 ~assoc:1) 1;
        level (Config.make ~size:(l2_line * 4 * 256) ~line_size:l2_line ~assoc:4) 10;
      ]
    ~memory_cycles:100

let test_hierarchy_l2_sees_l1_misses () =
  let w = Gen.generate (Bench.find "small") in
  let params = { (Bench.find "small").Trg_synth.Shape.train with Walker.target_events = 20_000 } in
  let trace = Walker.run w.Gen.program w.Gen.behavior params in
  let layout = Layout.default w.Gen.program in
  let h = Trg_cache.Hierarchy.simulate w.Gen.program layout (two_levels ()) trace in
  let l1 = h.Trg_cache.Hierarchy.levels.(0) and l2 = h.Trg_cache.Hierarchy.levels.(1) in
  let l1_alone =
    Sim.simulate w.Gen.program layout (Config.make ~size:8192 ~line_size:32 ~assoc:1) trace
  in
  Alcotest.(check int) "L1 result unchanged" l1_alone.Sim.misses l1.Trg_cache.Hierarchy.misses;
  Alcotest.(check int) "L2 accesses = L1 misses" l1.Trg_cache.Hierarchy.misses
    l2.Trg_cache.Hierarchy.accesses;
  Alcotest.(check bool) "L2 misses <= L2 accesses" true
    (l2.Trg_cache.Hierarchy.misses <= l2.Trg_cache.Hierarchy.accesses)

let test_hierarchy_rejects_bad_lines () =
  Alcotest.(check bool) "indivisible line sizes rejected" true
    (try
       ignore (two_levels ~l2_line:48 ());
       false
     with Invalid_argument _ -> true)

let test_hierarchy_experiment () =
  let r = Trg_eval.Runner.prepare (Bench.find "small") in
  let res = Trg_eval.Hierarchy.run ~cpus:[ "alpha-21064"; "skylake" ] r in
  Alcotest.(check int) "two CPU models" 2 (List.length res.Trg_eval.Hierarchy.cpus);
  List.iter
    (fun (c : Trg_eval.Hierarchy.cpu_result) ->
      Alcotest.(check int)
        (c.Trg_eval.Hierarchy.cpu.Trg_cache.Cpu.name ^ " rows")
        4
        (List.length c.Trg_eval.Hierarchy.rows);
      List.iter
        (fun (row : Trg_eval.Hierarchy.row) ->
          Alcotest.(check int)
            (row.Trg_eval.Hierarchy.label ^ " level count")
            (List.length c.Trg_eval.Hierarchy.level_labels)
            (List.length row.Trg_eval.Hierarchy.levels);
          Alcotest.(check bool)
            (row.Trg_eval.Hierarchy.label ^ " positive cycles")
            true
            (row.Trg_eval.Hierarchy.cycles > 0
            && row.Trg_eval.Hierarchy.amat >= 1.0))
        c.Trg_eval.Hierarchy.rows)
    res.Trg_eval.Hierarchy.cpus;
  (* On the paper's machine the paper's result must hold: GBSC beats the
     default layout end to end (estimated cycles, not just L1 misses). *)
  let alpha = List.hd res.Trg_eval.Hierarchy.cpus in
  let get label =
    List.find
      (fun (x : Trg_eval.Hierarchy.row) -> x.Trg_eval.Hierarchy.label = label)
      alpha.Trg_eval.Hierarchy.rows
  in
  Alcotest.(check bool) "GBSC improves AMAT on alpha-21064" true
    ((get "GBSC").Trg_eval.Hierarchy.amat
    < (get "default layout").Trg_eval.Hierarchy.amat)

let suite =
  suite
  @ [
      Alcotest.test_case "hierarchy L2 sees L1 misses" `Quick test_hierarchy_l2_sees_l1_misses;
      Alcotest.test_case "hierarchy rejects bad lines" `Quick test_hierarchy_rejects_bad_lines;
      Alcotest.test_case "hierarchy experiment" `Quick test_hierarchy_experiment;
    ]
