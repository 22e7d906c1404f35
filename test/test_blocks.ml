module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace
module Block_reorder = Trg_place.Block_reorder
module Anneal = Trg_place.Anneal
module Gbsc = Trg_place.Gbsc
module Bench = Trg_synth.Bench

let ev ?(kind = Event.Run) proc offset len = Event.make ~kind ~proc ~offset ~len

(* One 300-byte procedure with three 100-byte blocks; execution alternates
   block 0 and block 2, never block 1. *)
let fixture_trace =
  Trace.of_list
    (List.concat
       (List.init 20 (fun _ -> [ ev ~kind:Event.Enter 0 0 100; ev 0 200 100 ])))

let fixture_program = Program.of_sizes [| 300 |]

let test_reorder_moves_hot_together () =
  let t = Block_reorder.build fixture_program fixture_trace in
  Alcotest.(check int) "one proc reordered" 1 (Block_reorder.n_reordered t);
  (* Block at 0 stays at 0; block at 200 (hot successor) moves to 100;
     cold block at 100 sinks to 200. *)
  Alcotest.(check int) "entry stays" 0 (Block_reorder.remap_offset t ~proc:0 ~offset:0);
  Alcotest.(check int) "hot successor follows" 100
    (Block_reorder.remap_offset t ~proc:0 ~offset:200);
  Alcotest.(check int) "cold sinks" 200
    (Block_reorder.remap_offset t ~proc:0 ~offset:100)

let test_reorder_offsets_bijective () =
  let t = Block_reorder.build fixture_program fixture_trace in
  let seen = Hashtbl.create 300 in
  for off = 0 to 299 do
    let new_off = Block_reorder.remap_offset t ~proc:0 ~offset:off in
    Alcotest.(check bool) "in range" true (new_off >= 0 && new_off < 300);
    if Hashtbl.mem seen new_off then Alcotest.failf "offset %d mapped twice" new_off;
    Hashtbl.add seen new_off ()
  done

let test_reorder_remap_trace_bytes () =
  let t = Block_reorder.build fixture_program fixture_trace in
  let remapped = Block_reorder.remap_trace t fixture_trace in
  let bytes tr = Trace.fold (fun acc (e : Event.t) -> acc + e.len) 0 tr in
  Alcotest.(check int) "bytes preserved" (bytes fixture_trace) (bytes remapped);
  Trace.iter
    (fun (e : Event.t) ->
      Alcotest.(check bool) "within proc" true (e.offset + e.len <= 300))
    remapped

let test_reorder_spanning_event_is_cut () =
  let t = Block_reorder.build fixture_program fixture_trace in
  (* A run covering [50, 250) spans three segments with different targets. *)
  let crossing = Trace.of_list [ ev 0 50 200 ] in
  let remapped = Block_reorder.remap_trace t crossing in
  Alcotest.(check bool) "cut into pieces" true (Trace.length remapped >= 2);
  let total = Trace.fold (fun acc (e : Event.t) -> acc + e.len) 0 remapped in
  Alcotest.(check int) "bytes preserved" 200 total

let test_reorder_untouched_without_profile () =
  let t = Block_reorder.build fixture_program (Trace.of_list []) in
  Alcotest.(check int) "nothing reordered" 0 (Block_reorder.n_reordered t);
  Alcotest.(check int) "identity" 123 (Block_reorder.remap_offset t ~proc:0 ~offset:123)

let test_reorder_improves_small_benchmark () =
  let w = Trg_synth.Gen.generate (Bench.find "small") in
  let program = w.Trg_synth.Gen.program in
  let train = Trg_synth.Gen.train_trace w in
  let test = Trg_synth.Gen.test_trace w in
  let t = Block_reorder.build program train in
  let test' = Block_reorder.remap_trace t test in
  let cache = Trg_cache.Config.default in
  let mr trace =
    Trg_cache.Sim.miss_rate
      (Trg_cache.Sim.simulate program (Layout.default program) cache trace)
  in
  Alcotest.(check bool) "reordering reduces misses" true (mr test' < mr test)

(* --- Anneal -------------------------------------------------------------- *)

let runner = lazy (Trg_eval.Runner.prepare (Bench.find "small"))

let test_anneal_cost_sane () =
  (* Two single-chunk procedures with one TRG edge: overlapping offsets
     cost w, disjoint offsets cost 0. *)
  let r = Lazy.force runner in
  let program = Trg_eval.Runner.program r in
  let profile = r.Trg_eval.Runner.prof in
  let config = r.Trg_eval.Runner.config in
  let offs = Anneal.gbsc_offsets config program profile in
  let c = Anneal.cost config program ~profile ~offsets:offs in
  Alcotest.(check bool) "finite non-negative" true (c >= 0. && Float.is_finite c)

let test_anneal_warm_start_no_worse () =
  let r = Lazy.force runner in
  let program = Trg_eval.Runner.program r in
  let profile = r.Trg_eval.Runner.prof in
  let config = r.Trg_eval.Runner.config in
  let init = Anneal.gbsc_offsets config program profile in
  let base = Anneal.cost config program ~profile ~offsets:init in
  let params = { Anneal.default_params with Anneal.iterations = 5_000 } in
  let _, final = Anneal.place ~params ~init config program profile in
  Alcotest.(check bool)
    (Printf.sprintf "metric not worsened (%.0f -> %.0f)" base final)
    true (final <= base +. 1e-9)

let test_anneal_layout_complete () =
  let r = Lazy.force runner in
  let program = Trg_eval.Runner.program r in
  let params = { Anneal.default_params with Anneal.iterations = 2_000 } in
  let layout, _ =
    Anneal.place ~params r.Trg_eval.Runner.config program r.Trg_eval.Runner.prof
  in
  Alcotest.(check int) "all procs placed" (Program.n_procs program)
    (Array.length (Layout.order layout))

let test_anneal_deterministic () =
  let r = Lazy.force runner in
  let program = Trg_eval.Runner.program r in
  let params = { Anneal.default_params with Anneal.iterations = 2_000 } in
  let a, ca = Anneal.place ~params r.Trg_eval.Runner.config program r.Trg_eval.Runner.prof in
  let b, cb = Anneal.place ~params r.Trg_eval.Runner.config program r.Trg_eval.Runner.prof in
  Alcotest.(check bool) "same layout" true (Layout.addresses a = Layout.addresses b);
  Alcotest.(check (float 1e-9)) "same cost" ca cb

let test_blocks_experiment () =
  let res = Trg_eval.Blocks.run (Lazy.force runner) in
  Alcotest.(check int) "four rows" 4 (List.length res.Trg_eval.Blocks.rows);
  let get label =
    (List.find (fun r -> r.Trg_eval.Blocks.label = label) res.Trg_eval.Blocks.rows)
      .Trg_eval.Blocks.miss_rate
  in
  Alcotest.(check bool) "combined best" true
    (get "GBSC + block reordering" <= get "GBSC");
  Alcotest.(check bool) "reordering helps default" true
    (get "default + block reordering" < get "default layout")

let test_headroom_experiment () =
  let res = Trg_eval.Headroom.run ~iterations:3_000 (Lazy.force runner) in
  Alcotest.(check int) "four rows" 4 (List.length res.Trg_eval.Headroom.rows);
  let metric label =
    (List.find (fun r -> r.Trg_eval.Headroom.label = label) res.Trg_eval.Headroom.rows)
      .Trg_eval.Headroom.metric
  in
  Alcotest.(check bool) "warm start metric <= greedy metric" true
    (metric "anneal, warm start from GBSC" <= metric "GBSC (greedy)" +. 1e-9)

let suite =
  [
    Alcotest.test_case "reorder moves hot together" `Quick test_reorder_moves_hot_together;
    Alcotest.test_case "reorder offsets bijective" `Quick test_reorder_offsets_bijective;
    Alcotest.test_case "reorder remap preserves bytes" `Quick test_reorder_remap_trace_bytes;
    Alcotest.test_case "reorder cuts spanning events" `Quick test_reorder_spanning_event_is_cut;
    Alcotest.test_case "reorder identity without profile" `Quick test_reorder_untouched_without_profile;
    Alcotest.test_case "reorder improves small benchmark" `Quick test_reorder_improves_small_benchmark;
    Alcotest.test_case "anneal cost sane" `Quick test_anneal_cost_sane;
    Alcotest.test_case "anneal warm start no worse" `Quick test_anneal_warm_start_no_worse;
    Alcotest.test_case "anneal layout complete" `Quick test_anneal_layout_complete;
    Alcotest.test_case "anneal deterministic" `Quick test_anneal_deterministic;
    Alcotest.test_case "blocks experiment" `Quick test_blocks_experiment;
    Alcotest.test_case "headroom experiment" `Quick test_headroom_experiment;
  ]

(* --- Exhaustive optimal (verification tool) -------------------------------- *)

module Exhaustive = Trg_place.Exhaustive
module Toy = Trg_synth.Toy
module Sim = Trg_cache.Sim

let toy_config =
  { (Gbsc.default_config ~cache:Toy.cache ()) with Gbsc.chunk_size = 32; min_refs = 1 }

let toy_mr layout trace =
  Sim.miss_rate (Sim.simulate Toy.program layout Toy.cache trace)

let test_gbsc_is_optimal_on_toy_blocked () =
  (* The paper's motivating example: GBSC must reach the true optimum. *)
  let trace = Toy.trace_blocked () in
  let _, optimal = Exhaustive.search toy_config Toy.program trace in
  let gbsc = Gbsc.run toy_config Toy.program trace in
  Alcotest.(check (float 1e-9))
    "GBSC = exhaustive optimum on trace #2" optimal (toy_mr gbsc trace)

let test_gbsc_optimal_on_toy_alternating () =
  let trace = Toy.trace_alternating () in
  let _, optimal = Exhaustive.search toy_config Toy.program trace in
  let gbsc = Gbsc.run toy_config Toy.program trace in
  let gap = toy_mr gbsc trace -. optimal in
  Alcotest.(check bool)
    (Printf.sprintf "GBSC within 10%% rel. of optimum (gap %.4f)" gap)
    true
    (gap <= 0.1 *. optimal +. 1e-9)

let test_exhaustive_rejects_large () =
  let program = Program.of_sizes (Array.make 10 32) in
  let config = Gbsc.default_config () in
  Alcotest.(check bool) "too many layouts rejected" true
    (try
       ignore (Exhaustive.search ~max_layouts:100 config program (Toy.trace_blocked ()));
       false
     with Invalid_argument _ -> true)

let suite =
  suite
  @ [
      Alcotest.test_case "GBSC optimal on toy (blocked)" `Quick test_gbsc_is_optimal_on_toy_blocked;
      Alcotest.test_case "GBSC near-optimal on toy (alternating)" `Quick test_gbsc_optimal_on_toy_alternating;
      Alcotest.test_case "exhaustive rejects large" `Quick test_exhaustive_rejects_large;
    ]
