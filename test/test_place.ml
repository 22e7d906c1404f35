module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Layout = Trg_program.Layout
module Config = Trg_cache.Config
module Sim = Trg_cache.Sim
module Graph = Trg_profile.Graph
module Wcg = Trg_profile.Wcg
module Trg = Trg_profile.Trg
module Popularity = Trg_profile.Popularity
module Tstats = Trg_trace.Tstats
module Node = Trg_place.Node
module Merge_driver = Trg_place.Merge_driver
module Cost = Trg_place.Cost
module Linearize = Trg_place.Linearize
module Ph = Trg_place.Ph
module Gbsc = Trg_place.Gbsc
module Hkc = Trg_place.Hkc
module Metric = Trg_place.Metric
module Geometry = Trg_place.Geometry
module Toy = Trg_synth.Toy

(* --- Node -------------------------------------------------------------- *)

let test_node_union_shift () =
  let n1 = Node.singleton 0 and n2 = Node.singleton 1 in
  let merged = Node.union ~shift:5 ~modulo:8 n1 n2 in
  Alcotest.(check int) "n1 offset kept" 0 (Node.offset_of merged 0);
  Alcotest.(check int) "n2 shifted" 5 (Node.offset_of merged 1);
  let merged2 = Node.union ~shift:6 ~modulo:8 merged (Node.singleton 2) in
  Alcotest.(check int) "mod applied" 6 (Node.offset_of merged2 2);
  Alcotest.(check int) "size" 3 (Node.size merged2)

let test_node_union_wraps () =
  let base = Node.union ~shift:7 ~modulo:8 (Node.singleton 0) (Node.singleton 1) in
  let merged = Node.union ~shift:3 ~modulo:8 (Node.singleton 2) base in
  (* base offsets 0 and 7 shift by 3 mod 8 -> 3 and 2. *)
  Alcotest.(check int) "0 -> 3" 3 (Node.offset_of merged 0);
  Alcotest.(check int) "7 -> 2" 2 (Node.offset_of merged 1)

(* --- Merge driver ------------------------------------------------------ *)

(* Payload: list of original node ids, so we can observe the merge tree. *)
let run_driver graph =
  Merge_driver.run ~graph ~init:(fun p -> [ p ]) ~merge:(fun a b -> a @ b)

let test_driver_single_edge () =
  let g = Graph.of_edges [ (1, 2, 5.) ] in
  match run_driver g with
  | [ group ] -> Alcotest.(check (list int)) "merged" [ 1; 2 ] (List.sort compare group)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 group, got %d" (List.length l))

let test_driver_heaviest_first () =
  (* Edges a-b:10, c-d:8, b-c:5.  a-b merge first, then c-d, then the two
     groups join; the big group (first by count tie/repr) is n1. *)
  let g = Graph.of_edges [ (0, 1, 10.); (2, 3, 8.); (1, 2, 5.) ] in
  let order = ref [] in
  let _ =
    Merge_driver.run ~graph:g
      ~init:(fun p -> [ p ])
      ~merge:(fun a b ->
        order := (a, b) :: !order;
        a @ b)
  in
  match List.rev !order with
  | [ (m1a, m1b); (m2a, m2b); (m3a, m3b) ] ->
    Alcotest.(check (list int)) "first merge a,b" [ 0; 1 ] (List.sort compare (m1a @ m1b));
    Alcotest.(check (list int)) "second merge c,d" [ 2; 3 ] (List.sort compare (m2a @ m2b));
    Alcotest.(check (list int)) "third merge all" [ 0; 1; 2; 3 ]
      (List.sort compare (m3a @ m3b))
  | l -> Alcotest.fail (Printf.sprintf "expected 3 merges, got %d" (List.length l))

let test_driver_combines_parallel_edges () =
  (* After merging 1-2 (weight 10), edges 1-3 (2) and 2-3 (3) combine to 5,
     beating 4-5 (4). *)
  let g = Graph.of_edges [ (1, 2, 10.); (1, 3, 2.); (2, 3, 3.); (4, 5, 4.) ] in
  let order = ref [] in
  let _ =
    Merge_driver.run ~graph:g
      ~init:(fun p -> [ p ])
      ~merge:(fun a b ->
        order := (List.sort compare (a @ b)) :: !order;
        a @ b)
  in
  match List.rev !order with
  | first :: second :: _ ->
    Alcotest.(check (list int)) "1-2 first" [ 1; 2 ] first;
    Alcotest.(check (list int)) "combined edge beats 4-5" [ 1; 2; 3 ] second
  | _ -> Alcotest.fail "expected >= 2 merges"

let test_driver_disconnected_components () =
  let g = Graph.of_edges [ (1, 2, 1.); (5, 6, 2.) ] in
  let groups = run_driver g in
  Alcotest.(check int) "two groups" 2 (List.length groups)

let test_driver_deterministic () =
  let mk () = Graph.of_edges [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (3, 0, 1.) ] in
  let a = run_driver (mk ()) and b = run_driver (mk ()) in
  Alcotest.(check bool) "same result" true (a = b)

let prop_driver_partitions =
  QCheck.Test.make ~name:"driver groups partition the node set" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_range 0 15) (int_range 0 15)))
    (fun pairs ->
      let g = Graph.of_edges (List.map (fun (u, v) -> (u, v, 1.)) pairs) in
      let groups = run_driver g in
      let all = List.concat groups in
      let sorted = List.sort compare all in
      sorted = Graph.nodes g)

(* --- PH ----------------------------------------------------------------- *)

let test_ph_pairs_heaviest_adjacent () =
  (* p0 calls p1 heavily: they must be adjacent in the PH order. *)
  let program = Program.of_sizes [| 100; 100; 100; 100 |] in
  let wcg = Graph.of_edges [ (0, 1, 100.); (2, 3, 1.) ] in
  let order = Array.to_list (Ph.order ~wcg program) in
  let rec adjacent = function
    | a :: b :: _ when (a = 0 && b = 1) || (a = 1 && b = 0) -> true
    | _ :: rest -> adjacent rest
    | [] -> false
  in
  Alcotest.(check bool) "0 and 1 adjacent" true (adjacent order)

let test_ph_order_is_permutation () =
  let program = Program.of_sizes (Array.make 10 64) in
  let wcg = Graph.of_edges [ (0, 3, 5.); (3, 7, 4.); (1, 2, 3.) ] in
  let order = Ph.order ~wcg program in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 10 (fun i -> i)) sorted

let test_ph_chain_combination_distance () =
  (* Chains [0;1] (via 0-1:10) and [2;3] (via 2-3:9); cross edge 1-2:5.
     The AB combination [0;1;2;3] puts 1 and 2 adjacent: distance 0. *)
  let program = Program.of_sizes [| 100; 100; 100; 100 |] in
  let wcg = Graph.of_edges [ (0, 1, 10.); (2, 3, 9.); (1, 2, 5.) ] in
  let order = Array.to_list (Ph.order ~wcg program) in
  Alcotest.(check (list int)) "AB combination" [ 0; 1; 2; 3 ] order

let test_ph_reversal_choice () =
  (* Chains [0;1] and [2;3] with cross edge 0-2: combining needs reversal
     A'B = [1;0;2;3] to make 0 and 2 adjacent. *)
  let program = Program.of_sizes [| 100; 100; 100; 100 |] in
  let wcg = Graph.of_edges [ (0, 1, 10.); (2, 3, 9.); (0, 2, 5.) ] in
  let order = Array.to_list (Ph.order ~wcg program) in
  Alcotest.(check (list int)) "A'B combination" [ 1; 0; 2; 3 ] order

let test_ph_unprofiled_appended () =
  let program = Program.of_sizes (Array.make 5 64) in
  let wcg = Graph.of_edges [ (3, 4, 2.) ] in
  let order = Array.to_list (Ph.order ~wcg program) in
  Alcotest.(check (list int)) "cold procs in source order at end" [ 0; 1; 2 ]
    (List.filteri (fun i _ -> i >= 2) order)

let test_ph_layout_contiguous () =
  let program = Program.of_sizes [| 100; 50 |] in
  let wcg = Graph.of_edges [ (0, 1, 3.) ] in
  let layout = Ph.place ~wcg program in
  Alcotest.(check bool) "dense span" true (Layout.span layout <= 152)

(* --- Cost / merge_nodes ------------------------------------------------- *)

let line_size = 32

let test_cost_first_zero_after_p () =
  (* Two single-line procedures with a chunk TRG edge: the first zero-cost
     offset for q is right after p — merge_nodes reproduces a PH chain
     (Section 4.2, note 3). *)
  let program = Program.of_sizes [| 32; 32 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  let trg = Graph.of_edges [ (0, 1, 10.) ] in
  let cost =
    Cost.offsets_cost
      (Cost.prepare (Cost.Trg_chunks { chunks; trg }) program ~line_size ~n_sets:8)
      ~n1:(Node.singleton 0) ~n2:(Node.singleton 1)
  in
  Alcotest.(check bool) "offset 0 conflicts" true (cost.(0) > 0.);
  Alcotest.(check (float 1e-9)) "offset 1 free" 0. cost.(1);
  Alcotest.(check int) "best = first free" 1 (Cost.best_offset cost)

let test_cost_respects_sizes () =
  (* p is 3 lines long: q's first free offset is 3. *)
  let program = Program.of_sizes [| 96; 32 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  let trg = Graph.of_edges [ (0, 1, 10.) ] in
  let cost =
    Cost.offsets_cost
      (Cost.prepare (Cost.Trg_chunks { chunks; trg }) program ~line_size ~n_sets:8)
      ~n1:(Node.singleton 0) ~n2:(Node.singleton 1)
  in
  Alcotest.(check int) "offset 3" 3 (Cost.best_offset cost);
  Alcotest.(check bool) "offsets 0..2 conflict" true
    (cost.(0) > 0. && cost.(1) > 0. && cost.(2) > 0.)

let test_cost_chunked_overlap_allowed () =
  (* A two-chunk procedure whose SECOND chunk never interleaves with q:
     overlapping q with that cold chunk is free, so q can sit at the cold
     chunk's lines instead of after the whole procedure. *)
  let program = Program.of_sizes [| 512; 32 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  (* chunk ids: proc0 -> 0,1; proc1 -> 2.  Edge only chunk0-q. *)
  let trg = Graph.of_edges [ (0, 2, 10.) ] in
  let cost =
    Cost.offsets_cost
      (Cost.prepare (Cost.Trg_chunks { chunks; trg }) program ~line_size ~n_sets:32)
      ~n1:(Node.singleton 0) ~n2:(Node.singleton 1)
  in
  (* Lines 0..7 hold the hot chunk (conflict); line 8 (cold chunk) is free. *)
  Alcotest.(check bool) "hot lines conflict" true (cost.(0) > 0. && cost.(7) > 0.);
  Alcotest.(check int) "first free is 8, inside proc0" 8 (Cost.best_offset cost)

let test_cost_wcg_model_whole_proc () =
  (* Same geometry as above but with the WCG model at procedure granularity:
     all 16 lines of p conflict, so q lands after the whole procedure. *)
  let program = Program.of_sizes [| 512; 32 |] in
  let wcg = Graph.of_edges [ (0, 1, 10.) ] in
  let cost =
    Cost.offsets_cost
      (Cost.prepare (Cost.Wcg_procs { wcg }) program ~line_size ~n_sets:32)
      ~n1:(Node.singleton 0) ~n2:(Node.singleton 1)
  in
  Alcotest.(check int) "after whole proc" 16 (Cost.best_offset cost)

let test_cost_sa_pairs_model () =
  (* D(p,{r,s}) with p alone in n1 and the pair in n2 sharing a set: cost
     lands exactly where p's line meets theirs. *)
  let program = Program.of_sizes [| 32; 32; 32 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  let db = Trg_profile.Pair_db.create () in
  (* chunk ids equal proc ids here (one chunk each). *)
  Trg_profile.Pair_db.add db ~p:0 ~r:1 ~s:2 5.;
  let n2 = Node.union ~shift:0 ~modulo:4 (Node.singleton 1) (Node.singleton 2) in
  (* r and s both at set 0 in n2's frame; p at set 0 in n1.  Conflict occurs
     at relative offset 0 only. *)
  let cost =
    Cost.offsets_cost
      (Cost.prepare (Cost.Sa_pairs { chunks; db }) program ~line_size ~n_sets:4)
      ~n1:(Node.singleton 0) ~n2
  in
  Alcotest.(check bool) "offset 0 charged" true (cost.(0) > 0.);
  Alcotest.(check (float 1e-9)) "offset 1 free" 0. cost.(1);
  (* If r and s occupy different sets, no offset is charged. *)
  let n2' = Node.union ~shift:1 ~modulo:4 (Node.singleton 1) (Node.singleton 2) in
  let cost' =
    Cost.offsets_cost
      (Cost.prepare (Cost.Sa_pairs { chunks; db }) program ~line_size ~n_sets:4)
      ~n1:(Node.singleton 0) ~n2:n2'
  in
  Alcotest.(check (float 1e-9)) "split pair never charged" 0.
    (Array.fold_left ( +. ) 0. cost')

let test_iter_sets_caps_at_n_sets () =
  let seen = ref [] in
  let g = Geometry.of_procs (Program.of_sizes [| 32 * 10 |]) ~line_size:32 ~n_sets:4 in
  Geometry.iter_sets g (Geometry.start_set g ~owner_set:2 0) g.Geometry.lines.(0)
    (fun l -> seen := l :: !seen);
  Alcotest.(check int) "at most n_sets lines" 4 (List.length !seen);
  Alcotest.(check (list int)) "wraps" [ 2; 3; 0; 1 ] (List.rev !seen)

(* --- Linearize ---------------------------------------------------------- *)

let n_sets = 8

let test_linearize_realises_offsets () =
  let program = Program.of_sizes [| 64; 64; 64 |] in
  let layout =
    Linearize.layout program ~line_size ~n_sets
      ~placed:[ (0, 0); (1, 4); (2, 6) ]
      ~filler:[||]
  in
  List.iter
    (fun (p, target) ->
      Alcotest.(check int)
        (Printf.sprintf "proc %d at set %d" p target)
        target
        (Layout.address layout p / line_size mod n_sets))
    [ (0, 0); (1, 4); (2, 6) ]

let test_linearize_contiguous_when_chained () =
  (* Offsets forming a chain (0 at 0 occupying 2 lines, 1 at 2, 2 at 4):
     layout should be exactly contiguous, PH-style. *)
  let program = Program.of_sizes [| 64; 64; 64 |] in
  let layout =
    Linearize.layout program ~line_size ~n_sets
      ~placed:[ (0, 0); (1, 2); (2, 4) ]
      ~filler:[||]
  in
  Alcotest.(check int) "p1 right after p0" 64 (Layout.address layout 1);
  Alcotest.(check int) "p2 right after p1" 128 (Layout.address layout 2)

let test_linearize_fills_gaps () =
  (* Popular at sets 0 and 4 with 64-byte procs leaves a 2-line gap; a
     64-byte filler fits exactly. *)
  let program = Program.of_sizes [| 64; 64; 64 |] in
  let layout =
    Linearize.layout program ~line_size ~n_sets
      ~placed:[ (0, 0); (1, 4) ]
      ~filler:[| 2 |]
  in
  Alcotest.(check int) "filler in the gap" 64 (Layout.address layout 2);
  Alcotest.(check int) "popular at its set" 4
    (Layout.address layout 1 / line_size mod n_sets)

let test_linearize_appends_leftover_fillers () =
  let program = Program.of_sizes [| 64; 200; 100 |] in
  let layout =
    Linearize.layout program ~line_size ~n_sets ~placed:[ (0, 0) ] ~filler:[| 1; 2 |]
  in
  Alcotest.(check bool) "all placed" true (Layout.span layout >= 364)

let test_linearize_rejects_missing_proc () =
  let program = Program.of_sizes [| 64; 64 |] in
  Alcotest.(check bool) "missing proc rejected" true
    (try
       ignore (Linearize.layout program ~line_size ~n_sets ~placed:[ (0, 0) ] ~filler:[||]);
       false
     with Invalid_argument _ -> true)

let prop_linearize_valid_layouts =
  QCheck.Test.make ~name:"linearize always yields valid full layouts" ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 10) (int_range 0 7))
        (list_of_size (Gen.int_range 0 10) (int_range 1 300)))
    (fun (offsets, filler_sizes) ->
      let n_placed = List.length offsets in
      let sizes =
        Array.of_list (List.map (fun _ -> 64) offsets @ filler_sizes)
      in
      let program = Program.of_sizes sizes in
      let placed = List.mapi (fun i off -> (i, off)) offsets in
      let filler =
        Array.init (List.length filler_sizes) (fun i -> n_placed + i)
      in
      let layout = Linearize.layout program ~line_size ~n_sets ~placed ~filler in
      (* of_addresses validated non-overlap; check target sets too. *)
      List.for_all
        (fun (p, off) -> Layout.address layout p / line_size mod n_sets = off)
        placed)

(* --- GBSC end to end ----------------------------------------------------- *)

let toy_config =
  { (Gbsc.default_config ~cache:Toy.cache ()) with Gbsc.chunk_size = 32; min_refs = 1 }

let miss_rate layout trace =
  Sim.miss_rate (Sim.simulate Toy.program layout Toy.cache trace)

let test_gbsc_toy_blocked_shares_xy () =
  (* Trace #2: X and Y never interleave; the paper says they should share a
     cache line while Z gets its own.  GBSC must find a layout with fewer
     misses than the bad layout that splits X and Y. *)
  let trace = Toy.trace_blocked () in
  let layout = Gbsc.run toy_config Toy.program trace in
  let x_set = Layout.address layout Toy.x / 32 mod 3 in
  let y_set = Layout.address layout Toy.y / 32 mod 3 in
  let z_set = Layout.address layout Toy.z / 32 mod 3 in
  let m_set = Layout.address layout Toy.m / 32 mod 3 in
  Alcotest.(check int) "X and Y share a line" x_set y_set;
  Alcotest.(check bool) "Z conflicts with neither M nor X/Y" true
    (z_set <> m_set && z_set <> x_set)

let test_gbsc_toy_blocked_beats_alternating_layout () =
  let trace = Toy.trace_blocked () in
  let layout = Gbsc.run toy_config Toy.program trace in
  (* An adversarial layout: X and Z share a line (both interleave). *)
  let bad = Layout.of_addresses Toy.program [| 0; 32; 64; 32 + 96 |] in
  Alcotest.(check bool) "GBSC beats bad layout" true
    (miss_rate layout trace < miss_rate bad trace)

let test_gbsc_toy_traces_value_layouts_differently () =
  (* The heart of the paper's Figure 1: the same WCG, but the blocked trace
     strongly rewards X and Y sharing a line, while the alternating trace
     is indifferent at best.  Compare the share layout (X, Y on one line,
     Z alone) against the split layout (X, Y apart, Z sharing X). *)
  let share = Layout.of_addresses Toy.program [| 0; 32; 128; 64 |] in
  let split = Layout.of_addresses Toy.program [| 0; 32; 64; 128 |] in
  let mr layout trace = miss_rate layout trace in
  let blocked = Toy.trace_blocked () in
  let alternating = Toy.trace_alternating () in
  Alcotest.(check bool) "blocked: sharing wins by >2x" true
    (mr share blocked *. 2. < mr split blocked);
  let ratio = mr share alternating /. mr split alternating in
  Alcotest.(check bool)
    (Printf.sprintf "alternating: near tie (ratio %.2f)" ratio)
    true
    (ratio > 0.7 && ratio < 1.5);
  (* GBSC trained on the blocked trace must pick the sharing arrangement. *)
  let lay_blk = Gbsc.run toy_config Toy.program blocked in
  Alcotest.(check bool) "GBSC(blocked) at least as good as share layout" true
    (mr lay_blk blocked <= mr share blocked +. 1e-9)

let test_gbsc_deterministic () =
  let w = Trg_synth.Gen.generate (Trg_synth.Bench.find "small") in
  let train = Trg_synth.Gen.train_trace w in
  let config = Gbsc.default_config () in
  let a = Gbsc.run config w.Trg_synth.Gen.program train in
  let b = Gbsc.run config w.Trg_synth.Gen.program train in
  Alcotest.(check (array int)) "same layout" (Layout.addresses a) (Layout.addresses b)

let test_gbsc_improves_small_benchmark () =
  let w = Trg_synth.Gen.generate (Trg_synth.Bench.find "small") in
  let program = w.Trg_synth.Gen.program in
  let train = Trg_synth.Gen.train_trace w in
  let test = Trg_synth.Gen.test_trace w in
  let config = Gbsc.default_config () in
  let cache = config.Gbsc.cache in
  let mr layout = Sim.miss_rate (Sim.simulate program layout cache test) in
  let default = mr (Layout.default program) in
  let gbsc = mr (Gbsc.run config program train) in
  Alcotest.(check bool)
    (Printf.sprintf "GBSC %.4f < default %.4f" gbsc default)
    true (gbsc < default)

let test_gbsc_beats_ph_and_hkc_on_small () =
  let w = Trg_synth.Gen.generate (Trg_synth.Bench.find "small") in
  let program = w.Trg_synth.Gen.program in
  let train = Trg_synth.Gen.train_trace w in
  let test = Trg_synth.Gen.test_trace w in
  let config = Gbsc.default_config () in
  let cache = config.Gbsc.cache in
  let mr layout = Sim.miss_rate (Sim.simulate program layout cache test) in
  let prof = Gbsc.profile config program train in
  let wcg = Wcg.build train in
  let gbsc = mr (Gbsc.place program prof) in
  let ph = mr (Ph.place ~wcg program) in
  let hkc = mr (Hkc.place config program ~wcg ~popularity:prof.Gbsc.popularity) in
  Alcotest.(check bool)
    (Printf.sprintf "GBSC %.4f <= HKC %.4f" gbsc hkc)
    true (gbsc <= hkc);
  Alcotest.(check bool)
    (Printf.sprintf "GBSC %.4f <= PH %.4f" gbsc ph)
    true (gbsc <= ph)

let test_gbsc_all_procs_placed () =
  let w = Trg_synth.Gen.generate (Trg_synth.Bench.find "small") in
  let program = w.Trg_synth.Gen.program in
  let layout = Gbsc.run (Gbsc.default_config ()) program (Trg_synth.Gen.train_trace w) in
  Alcotest.(check int) "all addresses assigned" (Program.n_procs program)
    (Array.length (Layout.order layout))

let test_gbsc_config_validation () =
  let config = { (Gbsc.default_config ()) with Gbsc.chunk_size = 100 } in
  Alcotest.(check bool) "chunk/line mismatch rejected" true
    (try
       ignore (Gbsc.profile config Toy.program (Toy.trace_blocked ()));
       false
     with Invalid_argument _ -> true)

(* --- Metric -------------------------------------------------------------- *)

let test_metric_zero_when_no_overlap () =
  let program = Program.of_sizes [| 32; 32 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  let trg = Graph.of_edges [ (0, 1, 10.) ] in
  let cache = Config.make ~size:256 ~line_size:32 ~assoc:1 in
  let apart = Layout.of_addresses program [| 0; 32 |] in
  Alcotest.(check (float 1e-9)) "no overlap, no cost" 0.
    (Metric.trg_place program ~chunks ~trg ~cache apart)

let test_metric_counts_overlap () =
  let program = Program.of_sizes [| 32; 32 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  let trg = Graph.of_edges [ (0, 1, 10.) ] in
  let cache = Config.make ~size:256 ~line_size:32 ~assoc:1 in
  let overlapped = Layout.of_addresses program [| 0; 256 |] in
  Alcotest.(check (float 1e-9)) "weight x 1 shared line" 10.
    (Metric.trg_place program ~chunks ~trg ~cache overlapped)

let test_metric_wcg_multi_line () =
  let program = Program.of_sizes [| 64; 64 |] in
  let wcg = Graph.of_edges [ (0, 1, 3.) ] in
  let cache = Config.make ~size:256 ~line_size:32 ~assoc:1 in
  let overlapped = Layout.of_addresses program [| 0; 256 |] in
  (* Both procedures cover lines 0-1: two shared lines. *)
  Alcotest.(check (float 1e-9)) "3 x 2 lines" 6. (Metric.wcg program ~wcg ~cache overlapped)

let test_metric_tracks_misses_on_toy () =
  (* The good layout must have a strictly lower metric than the bad one,
     and the miss rates must agree with that ordering. *)
  let trace = Toy.trace_blocked () in
  let prof = Gbsc.profile toy_config Toy.program trace in
  let chunks = prof.Gbsc.chunks in
  let trg = prof.Gbsc.place.Trg.graph in
  let good = Gbsc.place Toy.program prof in
  let bad = Layout.of_addresses Toy.program [| 0; 32; 64; 32 + 96 |] in
  let metric l = Metric.trg_place Toy.program ~chunks ~trg ~cache:Toy.cache l in
  Alcotest.(check bool) "metric ordering matches miss ordering" true
    (metric good < metric bad && miss_rate good trace < miss_rate bad trace)

let suite =
  [
    Alcotest.test_case "node union shift" `Quick test_node_union_shift;
    Alcotest.test_case "node union wraps" `Quick test_node_union_wraps;
    Alcotest.test_case "driver single edge" `Quick test_driver_single_edge;
    Alcotest.test_case "driver heaviest first" `Quick test_driver_heaviest_first;
    Alcotest.test_case "driver combines parallel edges" `Quick test_driver_combines_parallel_edges;
    Alcotest.test_case "driver disconnected" `Quick test_driver_disconnected_components;
    Alcotest.test_case "driver deterministic" `Quick test_driver_deterministic;
    QCheck_alcotest.to_alcotest prop_driver_partitions;
    Alcotest.test_case "PH heaviest adjacent" `Quick test_ph_pairs_heaviest_adjacent;
    Alcotest.test_case "PH order permutation" `Quick test_ph_order_is_permutation;
    Alcotest.test_case "PH AB combination" `Quick test_ph_chain_combination_distance;
    Alcotest.test_case "PH reversal choice" `Quick test_ph_reversal_choice;
    Alcotest.test_case "PH unprofiled appended" `Quick test_ph_unprofiled_appended;
    Alcotest.test_case "PH layout contiguous" `Quick test_ph_layout_contiguous;
    Alcotest.test_case "cost first zero after p" `Quick test_cost_first_zero_after_p;
    Alcotest.test_case "cost respects sizes" `Quick test_cost_respects_sizes;
    Alcotest.test_case "cost chunked overlap allowed" `Quick test_cost_chunked_overlap_allowed;
    Alcotest.test_case "cost WCG whole proc" `Quick test_cost_wcg_model_whole_proc;
    Alcotest.test_case "cost SA pairs" `Quick test_cost_sa_pairs_model;
    Alcotest.test_case "iter_sets caps" `Quick test_iter_sets_caps_at_n_sets;
    Alcotest.test_case "linearize realises offsets" `Quick test_linearize_realises_offsets;
    Alcotest.test_case "linearize contiguous chains" `Quick test_linearize_contiguous_when_chained;
    Alcotest.test_case "linearize fills gaps" `Quick test_linearize_fills_gaps;
    Alcotest.test_case "linearize appends leftovers" `Quick test_linearize_appends_leftover_fillers;
    Alcotest.test_case "linearize rejects missing" `Quick test_linearize_rejects_missing_proc;
    QCheck_alcotest.to_alcotest prop_linearize_valid_layouts;
    Alcotest.test_case "GBSC toy: blocked shares X/Y" `Quick test_gbsc_toy_blocked_shares_xy;
    Alcotest.test_case "GBSC toy: beats bad layout" `Quick test_gbsc_toy_blocked_beats_alternating_layout;
    Alcotest.test_case "GBSC toy: trace-dependent value" `Quick test_gbsc_toy_traces_value_layouts_differently;
    Alcotest.test_case "GBSC deterministic" `Quick test_gbsc_deterministic;
    Alcotest.test_case "GBSC improves small benchmark" `Quick test_gbsc_improves_small_benchmark;
    Alcotest.test_case "GBSC beats PH and HKC (small)" `Quick test_gbsc_beats_ph_and_hkc_on_small;
    Alcotest.test_case "GBSC places all procs" `Quick test_gbsc_all_procs_placed;
    Alcotest.test_case "GBSC config validation" `Quick test_gbsc_config_validation;
    Alcotest.test_case "metric zero when apart" `Quick test_metric_zero_when_no_overlap;
    Alcotest.test_case "metric counts overlap" `Quick test_metric_counts_overlap;
    Alcotest.test_case "metric WCG multi-line" `Quick test_metric_wcg_multi_line;
    Alcotest.test_case "metric tracks misses (toy)" `Quick test_metric_tracks_misses_on_toy;
  ]

(* --- Hwu-Chang baseline ---------------------------------------------------- *)

module Hwu_chang = Trg_place.Hwu_chang

let test_hwu_chang_dfs_order () =
  (* 1 is hottest (incident 18); its heaviest edge leads to 0 (10), whose
     only unvisited neighbour is 3 (5); unwinding back to 1 picks up 2;
     edge-less 4 trails in source order. *)
  let program = Program.of_sizes (Array.make 5 64) in
  let wcg = Graph.of_edges [ (0, 1, 10.); (1, 2, 8.); (0, 3, 5.) ] in
  Alcotest.(check (array int)) "dfs order" [| 1; 0; 3; 2; 4 |]
    (Hwu_chang.order ~wcg program)

let test_hwu_chang_order_is_permutation () =
  let program = Program.of_sizes (Array.make 8 64) in
  let wcg = Graph.of_edges [ (1, 5, 3.); (5, 2, 7.); (0, 7, 1.) ] in
  let order = Hwu_chang.order ~wcg program in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 8 (fun i -> i)) sorted

let test_hwu_chang_competitive_on_small () =
  let w = Trg_synth.Gen.generate (Trg_synth.Bench.find "small") in
  let program = w.Trg_synth.Gen.program in
  let train = Trg_synth.Gen.train_trace w in
  let test = Trg_synth.Gen.test_trace w in
  let cache = Config.default in
  let mr layout = Sim.miss_rate (Sim.simulate program layout cache test) in
  let hc = mr (Hwu_chang.place ~wcg:(Wcg.build train) program) in
  let default = mr (Layout.default program) in
  Alcotest.(check bool)
    (Printf.sprintf "Hwu-Chang %.4f beats default %.4f" hc default)
    true (hc < default)

let suite =
  suite
  @ [
      Alcotest.test_case "hwu-chang dfs order" `Quick test_hwu_chang_dfs_order;
      Alcotest.test_case "hwu-chang permutation" `Quick test_hwu_chang_order_is_permutation;
      Alcotest.test_case "hwu-chang competitive" `Quick test_hwu_chang_competitive_on_small;
    ]

(* End-to-end invariant: the heaviest TRG_select pair never overlaps in the
   cache under GBSC (whenever the two procedures fit beside each other). *)
let test_gbsc_heaviest_pair_disjoint () =
  let w = Trg_synth.Gen.generate (Trg_synth.Bench.find "small") in
  let program = w.Trg_synth.Gen.program in
  let train = Trg_synth.Gen.train_trace w in
  let config = Gbsc.default_config () in
  let prof = Gbsc.profile config program train in
  let layout = Gbsc.place program prof in
  let heaviest =
    Array.fold_left
      (fun best (u, v, wt) ->
        match best with
        | Some (_, _, bw) when bw >= wt -> best
        | _ -> Some (u, v, wt))
      None
      (Graph.edges prof.Gbsc.select.Trg.graph)
  in
  match heaviest with
  | None -> Alcotest.fail "no TRG edges"
  | Some (p, q, _) ->
    let n_sets = 256 and line = 32 in
    let sets proc =
      let start = Layout.address layout proc / line in
      let lines = (Program.size program proc + line - 1) / line in
      List.init (min lines n_sets) (fun j -> (start + j) mod n_sets)
    in
    let sp = sets p and sq = sets q in
    if List.length sp + List.length sq <= n_sets then
      List.iter
        (fun s ->
          if List.mem s sq then
            Alcotest.failf "heaviest pair (%s, %s) overlaps at set %d"
              (Program.name program p) (Program.name program q) s)
        sp

let suite =
  suite
  @ [ Alcotest.test_case "GBSC heaviest pair disjoint" `Quick test_gbsc_heaviest_pair_disjoint ]

(* Seeding integrates each pair straight into slab storage that is never
   allocated young, so the incremental engine's pair arrays (257 words
   each with their header) never pass through the minor heap.  Bounded
   at 32 minor words per seeded pair, an eighth of one array, on small's
   chunk TRG at the paper's 8 KB point. *)
let test_seed_allocation () =
  let w = Trg_synth.Gen.generate (Trg_synth.Bench.find "small") in
  let program = w.Trg_synth.Gen.program in
  let config = Gbsc.default_config () in
  let prof = Gbsc.profile config program (Trg_synth.Gen.train_trace w) in
  let model = Cost.Trg_chunks { chunks = prof.Gbsc.chunks; trg = prof.Gbsc.place.Trg.graph } in
  let line_size = config.Gbsc.cache.Config.line_size in
  let n_sets = Config.n_sets config.Gbsc.cache in
  let seeded = Trg_obs.Metrics.counter "cost/incr/seeded_pairs" in
  let p0 = Trg_obs.Metrics.value seeded in
  let m0 = Gc.minor_words () in
  let engine = Cost.seed_incr (Cost.prepare model program ~line_size ~n_sets) in
  let minor = Gc.minor_words () -. m0 in
  let pairs = Trg_obs.Metrics.value seeded - p0 in
  Alcotest.(check bool) "seeded" true (Option.is_some engine && pairs >= 100);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d pairs" minor pairs)
    true
    (minor <= 32. *. float_of_int pairs)

(* A released engine refuses further use, and the engine seeded next on
   its recycled blocks, which still hold the old arrays, answers as the
   first one did. *)
let test_incr_release () =
  let w = Trg_synth.Gen.generate (Trg_synth.Bench.find "small") in
  let program = w.Trg_synth.Gen.program in
  let config = Gbsc.default_config () in
  let prof = Gbsc.profile config program (Trg_synth.Gen.train_trace w) in
  let model = Cost.Trg_chunks { chunks = prof.Gbsc.chunks; trg = prof.Gbsc.place.Trg.graph } in
  let line_size = config.Gbsc.cache.Config.line_size in
  let n_sets = Config.n_sets config.Gbsc.cache in
  let seed () = Option.get (Cost.seed_incr (Cost.prepare model program ~line_size ~n_sets)) in
  let pairs =
    Array.to_list (Array.map (fun (u, v, _) -> (u, v)) (Graph.edges prof.Gbsc.select.Trg.graph))
  in
  let costs eng =
    List.map (fun (u, v) -> Trg_cache.Incr.cost eng ~fixed:u ~moving:v) pairs
  in
  let first = seed () in
  let expected = costs first in
  Trg_cache.Incr.release first;
  Alcotest.(check bool) "released engine refuses use" true
    (match Trg_cache.Incr.cost first ~fixed:0 ~moving:1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "next engine answers alike" true (costs (seed ()) = expected)

let suite =
  suite
  @ [
      Alcotest.test_case "seeding allocation" `Quick test_seed_allocation;
      Alcotest.test_case "incr engine release" `Quick test_incr_release;
    ]
