module Graph = Trg_profile.Graph
module Wcg = Trg_profile.Wcg
module Trg = Trg_profile.Trg
module Pair_db = Trg_profile.Pair_db
module Popularity = Trg_profile.Popularity
module Perturb = Trg_profile.Perturb
module Toy = Trg_synth.Toy
module Tstats = Trg_trace.Tstats
module Trace = Trg_trace.Trace
module Event = Trg_trace.Event
module Prng = Trg_util.Prng
module Gbsc = Trg_place.Gbsc
module Bench = Trg_synth.Bench
module Gen = Trg_synth.Gen
module Shape = Trg_synth.Shape

let m = Toy.m and x = Toy.x and y = Toy.y and z = Toy.z

(* --- WCG ------------------------------------------------------------- *)

let test_wcg_counts_calls_and_returns () =
  let wcg = Wcg.build (Toy.trace_blocked ~iterations:80 ()) in
  (* 40 calls M->X plus 40 returns X->M. *)
  Alcotest.(check (float 1e-9)) "M-X" 80. (Graph.weight wcg m x);
  Alcotest.(check (float 1e-9)) "M-Y" 80. (Graph.weight wcg m y);
  Alcotest.(check (float 1e-9)) "M-Z" 160. (Graph.weight wcg m z)

let test_wcg_identical_for_both_traces () =
  (* The paper's point: trace #1 and trace #2 produce the same WCG. *)
  let w1 = Wcg.build (Toy.trace_alternating ()) in
  let w2 = Wcg.build (Toy.trace_blocked ()) in
  Alcotest.(check bool) "same edges" true (Graph.edges w1 = Graph.edges w2)

let test_wcg_no_sibling_edges () =
  let wcg = Wcg.build (Toy.trace_blocked ()) in
  Alcotest.(check (float 1e-9)) "X-Y absent" 0. (Graph.weight wcg x y);
  Alcotest.(check (float 1e-9)) "X-Z absent" 0. (Graph.weight wcg x z)

let test_wcg_call_counts_half () =
  let full = Wcg.build (Toy.trace_blocked ()) in
  let calls = Wcg.call_counts (Toy.trace_blocked ()) in
  Alcotest.(check (float 1e-9)) "calls are half" (Graph.weight full m x /. 2.)
    (Graph.weight calls m x)

(* --- TRG (Figure 2) -------------------------------------------------- *)

let toy_capacity = 2 * Toy.cache.Trg_cache.Config.size

let build_select trace =
  (Trg.build_select ~capacity_bytes:toy_capacity Toy.program trace).Trg.graph

let test_trg_blocked_edges () =
  (* Figure 2: trace #2 yields extra edges (X,Z) and (Y,Z) but NOT (X,Y). *)
  let g = build_select (Toy.trace_blocked ()) in
  Alcotest.(check bool) "X-Z present" true (Graph.weight g x z > 0.);
  Alcotest.(check bool) "Y-Z present" true (Graph.weight g y z > 0.);
  Alcotest.(check (float 1e-9)) "X-Y absent" 0. (Graph.weight g x y)

let test_trg_alternating_edges () =
  (* Trace #1 interleaves X and Y, so the TRG sees them. *)
  let g = build_select (Toy.trace_alternating ()) in
  Alcotest.(check bool) "X-Y present" true (Graph.weight g x y > 0.)

let test_trg_weights_nearly_double_wcg () =
  (* Figure 2's caption: WCG edges remain with nearly doubled weights
     relative to call counts (approx 2x40 for M-X). *)
  let g = build_select (Toy.trace_blocked ()) in
  let w_mx = Graph.weight g m x in
  Alcotest.(check bool)
    (Printf.sprintf "70 <= W(M,X)=%g <= 80" w_mx)
    true
    (w_mx >= 70. && w_mx <= 80.)

let test_trg_distinguishes_traces () =
  let g1 = build_select (Toy.trace_alternating ()) in
  let g2 = build_select (Toy.trace_blocked ()) in
  Alcotest.(check bool) "different graphs" true (Graph.edges g1 <> Graph.edges g2)

let test_trg_capacity_limits_reach () =
  (* With a tiny Q bound, far-apart procedures never meet in Q.  The stream
     1 2 1 visits 1 twice within the bound; 1 2 3 4 ... 1 does not. *)
  let near =
    Trg.build_stream ~capacity_bytes:64 ~size_of:(fun _ -> 32) (fun emit ->
        List.iter emit [ 1; 2; 1 ])
  in
  Alcotest.(check bool) "near reuse seen" true (Graph.weight near.Trg.graph 1 2 > 0.);
  let far =
    Trg.build_stream ~capacity_bytes:64 ~size_of:(fun _ -> 32) (fun emit ->
        List.iter emit [ 1; 2; 3; 4; 5; 1 ])
  in
  Alcotest.(check (float 1e-9)) "far reuse invisible" 0. (Graph.weight far.Trg.graph 1 5)

let test_trg_consecutive_duplicates_collapse () =
  let b =
    Trg.build_stream ~capacity_bytes:1024 ~size_of:(fun _ -> 32) (fun emit ->
        List.iter emit [ 1; 1; 1; 2; 2; 1 ])
  in
  (* Equivalent to 1 2 1: one increment on (1,2). *)
  Alcotest.(check (float 1e-9)) "single increment" 1. (Graph.weight b.Trg.graph 1 2)

let test_trg_qstats_steps () =
  let b =
    Trg.build_stream ~capacity_bytes:1024 ~size_of:(fun _ -> 32) (fun emit ->
        List.iter emit [ 1; 2; 3 ])
  in
  Alcotest.(check int) "3 steps" 3 b.Trg.qstats.Trg_profile.Qset.steps

let test_trg_place_chunk_granularity () =
  (* One 512-byte procedure alternating its two 256-byte halves against a
     small second procedure: the chunk TRG must see intra-procedure
     structure that the procedure TRG cannot. *)
  let program = Trg_program.Program.of_sizes [| 512; 64 |] in
  let chunks = Trg_program.Chunk.make ~chunk_size:256 program in
  let ev proc offset len = Event.make ~kind:Event.Run ~proc ~offset ~len in
  let trace =
    Trace.of_list
      [ ev 0 0 64; ev 0 256 64; ev 0 0 64; ev 0 256 64; ev 0 0 64 ]
  in
  let b = Trg.build_place ~capacity_bytes:16384 chunks trace in
  Alcotest.(check bool) "chunk edge inside proc" true (Graph.weight b.Trg.graph 0 1 > 0.)

(* --- Pair database (Section 6) --------------------------------------- *)

let test_pair_db_basic () =
  (* Stream p r s p: pair {r,s} appears between the two p references. *)
  let b =
    Pair_db.build_stream ~capacity_bytes:4096 ~size_of:(fun _ -> 32) (fun emit ->
        List.iter emit [ 1; 2; 3; 1 ])
  in
  Alcotest.(check (float 1e-9)) "D(1,{2,3})" 1. (Pair_db.count b.Pair_db.db ~p:1 ~r:2 ~s:3);
  Alcotest.(check (float 1e-9)) "unordered" 1. (Pair_db.count b.Pair_db.db ~p:1 ~r:3 ~s:2)

let test_pair_db_single_intervener_no_pair () =
  (* One intervening block is not enough to evict from a 2-way set. *)
  let b =
    Pair_db.build_stream ~capacity_bytes:4096 ~size_of:(fun _ -> 32) (fun emit ->
        List.iter emit [ 1; 2; 1 ])
  in
  Alcotest.(check int) "no pairs" 0 (Pair_db.n_entries b.Pair_db.db)

let test_pair_db_triple_interveners () =
  let b =
    Pair_db.build_stream ~capacity_bytes:4096 ~size_of:(fun _ -> 32) (fun emit ->
        List.iter emit [ 1; 2; 3; 4; 1 ])
  in
  (* C(3,2) = 3 pairs recorded for p=1. *)
  Alcotest.(check int) "three pairs" 3 (Pair_db.n_entries b.Pair_db.db);
  Alcotest.(check (float 1e-9)) "D(1,{2,4})" 1. (Pair_db.count b.Pair_db.db ~p:1 ~r:2 ~s:4)

let test_pair_db_iteration () =
  let db = Pair_db.create () in
  Pair_db.add db ~p:5 ~r:1 ~s:2 2.;
  Pair_db.add db ~p:5 ~r:2 ~s:1 1.;
  let total = ref 0. in
  Pair_db.iter_p db 5 (fun r s w ->
      Alcotest.(check bool) "canonical r<s" true (r < s);
      total := !total +. w);
  Alcotest.(check (float 1e-9)) "accumulated" 3. !total

let test_pair_db_rejects_degenerate () =
  let db = Pair_db.create () in
  Alcotest.(check bool) "r=s rejected" true
    (try
       Pair_db.add db ~p:1 ~r:2 ~s:2 1.;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "r=p rejected" true
    (try
       Pair_db.add db ~p:1 ~r:1 ~s:2 1.;
       false
     with Invalid_argument _ -> true)

let test_pair_db_max_between () =
  let feed emit = List.iter emit [ 1; 2; 3; 4; 5; 6; 1 ] in
  let unbounded =
    Pair_db.build_stream ~capacity_bytes:65536 ~size_of:(fun _ -> 32) ~max_between:64 feed
  in
  let bounded =
    Pair_db.build_stream ~capacity_bytes:65536 ~size_of:(fun _ -> 32) ~max_between:2 feed
  in
  Alcotest.(check int) "C(5,2)=10" 10 (Pair_db.n_entries unbounded.Pair_db.db);
  Alcotest.(check int) "truncated to C(2,2)=1" 1 (Pair_db.n_entries bounded.Pair_db.db);
  (* Truncation keeps the most recent interveners (5 and 6). *)
  Alcotest.(check (float 1e-9)) "recent pair kept" 1.
    (Pair_db.count bounded.Pair_db.db ~p:1 ~r:5 ~s:6)

(* --- Popularity ------------------------------------------------------- *)

let trace_with_counts counts =
  (* counts.(p) references of procedure p, interleaved round-robin-ish. *)
  let events = ref [] in
  Array.iteri
    (fun p c ->
      for _ = 1 to c do
        events := Event.make ~kind:Event.Enter ~proc:p ~offset:0 ~len:16 :: !events
      done)
    counts;
  Trace.of_list !events

let test_popularity_coverage () =
  let program = Trg_program.Program.of_sizes [| 100; 100; 100; 100 |] in
  let trace = trace_with_counts [| 970; 20; 8; 2 |] in
  let stats = Tstats.compute ~n_procs:4 trace in
  let pop = Popularity.select ~coverage:0.97 ~min_refs:2 program stats in
  Alcotest.(check bool) "p0 popular" true pop.Popularity.is_popular.(0);
  Alcotest.(check bool) "p3 not popular" false pop.Popularity.is_popular.(3);
  Alcotest.(check int) "ranked head" 0 pop.Popularity.ranked.(0)

let test_popularity_min_refs () =
  let program = Trg_program.Program.of_sizes [| 100; 100 |] in
  let trace = trace_with_counts [| 100; 1 |] in
  let stats = Tstats.compute ~n_procs:2 trace in
  let pop = Popularity.select ~coverage:1.0 ~min_refs:2 program stats in
  Alcotest.(check bool) "1-ref proc excluded" false pop.Popularity.is_popular.(1)

let test_popularity_max_procs () =
  let program = Trg_program.Program.of_sizes (Array.make 10 100) in
  let trace = trace_with_counts (Array.make 10 50) in
  let stats = Tstats.compute ~n_procs:10 trace in
  let pop = Popularity.select ~coverage:1.0 ~min_refs:1 ~max_procs:3 program stats in
  Alcotest.(check int) "capped at 3" 3 (Popularity.n_popular pop)

let test_popularity_unpopular_sorted () =
  let program = Trg_program.Program.of_sizes (Array.make 5 100) in
  let trace = trace_with_counts [| 0; 100; 0; 100; 0 |] in
  let stats = Tstats.compute ~n_procs:5 trace in
  let pop = Popularity.select ~coverage:1.0 ~min_refs:1 program stats in
  Alcotest.(check (array int)) "unpopular ascending" [| 0; 2; 4 |] (Popularity.unpopular pop);
  Alcotest.(check int) "popular bytes" 200 pop.Popularity.popular_bytes

(* --- Perturbation ----------------------------------------------------- *)

let test_perturb_zero_s_identity () =
  let g = Graph.of_edges [ (1, 2, 5.); (2, 3, 7.) ] in
  let g' = Perturb.graph (Prng.create 1) ~s:0. g in
  Alcotest.(check bool) "identical" true (Graph.edges g = Graph.edges g')

let test_perturb_positive_weights () =
  let g = Graph.of_edges [ (1, 2, 5.); (2, 3, 7.); (1, 3, 0.5) ] in
  let g' = Perturb.graph (Prng.create 2) ~s:1.0 g in
  Graph.iter_edges (fun _ _ w -> Alcotest.(check bool) "positive" true (w > 0.)) g'

let test_perturb_changes_weights () =
  let g = Graph.of_edges [ (1, 2, 5.) ] in
  let g' = Perturb.graph (Prng.create 3) ~s:0.1 g in
  Alcotest.(check bool) "perturbed" true (Graph.weight g' 1 2 <> 5.);
  (* Multiplicative, scale 0.1: stays within a factor of ~2 virtually always. *)
  Alcotest.(check bool) "close to original" true
    (Graph.weight g' 1 2 > 2.5 && Graph.weight g' 1 2 < 10.)

let test_perturb_deterministic () =
  let g = Graph.of_edges [ (1, 2, 5.); (2, 3, 7.) ] in
  let a = Perturb.graph (Prng.create 4) ~s:0.1 g in
  let b = Perturb.graph (Prng.create 4) ~s:0.1 g in
  Alcotest.(check bool) "same seed same result" true (Graph.edges a = Graph.edges b)

let test_perturb_pair_db () =
  let db = Pair_db.create () in
  Pair_db.add db ~p:1 ~r:2 ~s:3 10.;
  let db' = Perturb.pair_db (Prng.create 5) ~s:0.1 db in
  let w = Pair_db.count db' ~p:1 ~r:2 ~s:3 in
  Alcotest.(check bool) "perturbed positive" true (w > 0. && w <> 10.)

let prop_perturb_preserves_structure =
  QCheck.Test.make ~name:"perturbation preserves edge set" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_range 0 15) (int_range 0 15)))
    (fun pairs ->
      let g = Graph.create () in
      List.iter (fun (u, v) -> if u <> v then Graph.add_edge g u v 1.) pairs;
      let g' = Perturb.graph (Prng.create 6) ~s:0.5 g in
      Graph.n_edges g = Graph.n_edges g'
      && List.for_all
           (fun (u, v) -> u = v || Graph.mem_edge g' u v)
           pairs)

(* --- Allocation ------------------------------------------------------ *)

(* The profile layer walks packed words, keeps Q in id-indexed int arrays
   and counts edges in an int table, so the only per-edge minor
   allocation of [Gbsc.profile] is the final graphs (about 16 words an
   edge), and nothing is allocated per event or per edge increment.  The
   second call is measured, so lazy tables are already forced. *)
let test_profile_allocation_bound () =
  List.iter
    (fun (shape : Shape.t) ->
      let w = Gen.generate shape in
      let full = Gen.train_trace w in
      let trace = Trace.sub full ~pos:0 ~len:(min 200_000 (Trace.length full)) in
      let config = Gbsc.default_config () in
      ignore (Gbsc.profile config w.Gen.program trace : Gbsc.profile);
      let before = Gc.minor_words () in
      let p = Gbsc.profile config w.Gen.program trace in
      let words = Gc.minor_words () -. before in
      let edges =
        Graph.n_edges p.Gbsc.select.Trg.graph + Graph.n_edges p.Gbsc.place.Trg.graph
      in
      let budget = float_of_int ((32 * edges) + 16384) in
      if words > budget then
        Alcotest.failf "%s: Gbsc.profile allocated %.0f minor words (budget %.0f, %d edges)"
          shape.Shape.name words budget edges)
    (Bench.small :: Bench.all)

let suite =
  [
    Alcotest.test_case "WCG counts calls+returns" `Quick test_wcg_counts_calls_and_returns;
    Alcotest.test_case "WCG identical for both traces" `Quick test_wcg_identical_for_both_traces;
    Alcotest.test_case "WCG has no sibling edges" `Quick test_wcg_no_sibling_edges;
    Alcotest.test_case "WCG call_counts halves" `Quick test_wcg_call_counts_half;
    Alcotest.test_case "TRG blocked trace edges (Fig 2)" `Quick test_trg_blocked_edges;
    Alcotest.test_case "TRG alternating trace edges" `Quick test_trg_alternating_edges;
    Alcotest.test_case "TRG weights ~2x call counts" `Quick test_trg_weights_nearly_double_wcg;
    Alcotest.test_case "TRG distinguishes traces" `Quick test_trg_distinguishes_traces;
    Alcotest.test_case "TRG capacity limits reach" `Quick test_trg_capacity_limits_reach;
    Alcotest.test_case "TRG duplicate collapse" `Quick test_trg_consecutive_duplicates_collapse;
    Alcotest.test_case "TRG qstats steps" `Quick test_trg_qstats_steps;
    Alcotest.test_case "TRG_place chunk granularity" `Quick test_trg_place_chunk_granularity;
    Alcotest.test_case "pair db basic" `Quick test_pair_db_basic;
    Alcotest.test_case "pair db single intervener" `Quick test_pair_db_single_intervener_no_pair;
    Alcotest.test_case "pair db triple interveners" `Quick test_pair_db_triple_interveners;
    Alcotest.test_case "pair db iteration" `Quick test_pair_db_iteration;
    Alcotest.test_case "pair db rejects degenerate" `Quick test_pair_db_rejects_degenerate;
    Alcotest.test_case "pair db max_between" `Quick test_pair_db_max_between;
    Alcotest.test_case "popularity coverage" `Quick test_popularity_coverage;
    Alcotest.test_case "popularity min_refs" `Quick test_popularity_min_refs;
    Alcotest.test_case "popularity max_procs" `Quick test_popularity_max_procs;
    Alcotest.test_case "popularity unpopular sorted" `Quick test_popularity_unpopular_sorted;
    Alcotest.test_case "perturb s=0 identity" `Quick test_perturb_zero_s_identity;
    Alcotest.test_case "perturb positive" `Quick test_perturb_positive_weights;
    Alcotest.test_case "perturb changes weights" `Quick test_perturb_changes_weights;
    Alcotest.test_case "perturb deterministic" `Quick test_perturb_deterministic;
    Alcotest.test_case "perturb pair db" `Quick test_perturb_pair_db;
    QCheck_alcotest.to_alcotest prop_perturb_preserves_structure;
    Alcotest.test_case "Gbsc.profile allocation bound" `Quick test_profile_allocation_bound;
  ]
