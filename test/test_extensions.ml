(* Tests for the extension features: serialization, procedure splitting,
   page-fault simulation, ASCII plotting, packed tie-breaking, chunk
   counts, affinity-aware linearisation, and the extension experiments. *)

module Program = Trg_program.Program
module Proc = Trg_program.Proc
module Chunk = Trg_program.Chunk
module Layout = Trg_program.Layout
module Serial = Trg_program.Serial
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace
module Config = Trg_cache.Config
module Sim = Trg_cache.Sim
module Graph = Trg_profile.Graph
module Chunk_counts = Trg_profile.Chunk_counts
module Cost = Trg_place.Cost
module Node = Trg_place.Node
module Split = Trg_place.Split
module Gbsc = Trg_place.Gbsc
module Linearize = Trg_place.Linearize
module Plot = Trg_util.Plot
module Bench = Trg_synth.Bench

let ev ?(kind = Event.Run) proc offset len = Event.make ~kind ~proc ~offset ~len

(* --- Serial ------------------------------------------------------------- *)

let sample_program =
  Program.make
    [|
      Proc.make ~id:0 ~name:"main" ~size:100;
      Proc.make ~id:1 ~name:"helper one" ~size:64;
      Proc.make ~id:2 ~name:"z" ~size:4096;
    |]

let test_serial_program_roundtrip () =
  let path = Filename.temp_file "trgplace" ".prog" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save_program path sample_program;
      let p = Serial.load_program path in
      Alcotest.(check int) "count" 3 (Program.n_procs p);
      Alcotest.(check string) "name with space" "helper one" (Program.name p 1);
      Alcotest.(check int) "size" 4096 (Program.size p 2))

let test_serial_layout_roundtrip () =
  let layout = Layout.of_addresses sample_program [| 0; 4200; 104 |] in
  let path = Filename.temp_file "trgplace" ".layout" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save_layout path layout;
      let l = Serial.load_layout sample_program path in
      Alcotest.(check (array int)) "addresses" (Layout.addresses layout)
        (Layout.addresses l))

let test_serial_layout_program_mismatch () =
  let layout = Layout.of_addresses sample_program [| 0; 4200; 104 |] in
  let path = Filename.temp_file "trgplace" ".layout" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save_layout path layout;
      let other = Program.of_sizes [| 10; 10 |] in
      Alcotest.(check bool) "mismatch rejected" true
        (try
           ignore (Serial.load_layout other path);
           false
         with Failure _ -> true))

let test_serial_rejects_garbage () =
  let path = Filename.temp_file "trgplace" ".prog" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "hello\n";
      close_out oc;
      Alcotest.(check bool) "garbage rejected" true
        (try
           ignore (Serial.load_program path);
           false
         with Failure _ -> true))

(* --- Chunk_counts -------------------------------------------------------- *)

let test_chunk_counts () =
  let program = Program.of_sizes [| 512; 256 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  let trace =
    Trace.of_list [ ev 0 0 64; ev 0 300 10; ev 0 0 300; ev 1 0 256 ]
  in
  let counts = Chunk_counts.compute chunks trace in
  Alcotest.(check int) "chunk0 of p0" 2 counts.(0);
  Alcotest.(check int) "chunk1 of p0" 2 counts.(1);
  Alcotest.(check int) "chunk of p1" 1 counts.(2)

(* --- Split ----------------------------------------------------------------- *)

(* Procedure 0: 512 bytes, hot first chunk, cold second chunk.
   Procedure 1: 256 bytes, all hot.  Trace enters p0 often but touches its
   second chunk only once. *)
let split_fixture () =
  let program = Program.of_sizes [| 512; 256 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  let events =
    List.concat
      (List.init 50 (fun i ->
           [ ev ~kind:Event.Enter 0 0 64; ev ~kind:Event.Enter 1 0 64 ]
           @ (if i = 0 then [ ev 1 64 32 ] else [])))
    @ [ ev ~kind:Event.Enter 0 0 64; ev 0 256 64 ]
  in
  let trace = Trace.of_list events in
  let chunk_counts = Chunk_counts.compute chunks trace in
  let enter_counts = [| 51; 50 |] in
  (program, chunks, trace, chunk_counts, enter_counts)

let test_split_detects_cold_chunk () =
  let program, chunks, _, chunk_counts, enter_counts = split_fixture () in
  let s = Split.split ~cold_fraction:0.2 program chunks ~chunk_counts ~enter_counts in
  Alcotest.(check int) "one proc split" 1 (Split.n_split s);
  Alcotest.(check int) "256 cold bytes" 256 (Split.cold_bytes s);
  let sp = Split.program s in
  Alcotest.(check int) "three procs now" 3 (Program.n_procs sp);
  Alcotest.(check (option int)) "cold part named" (Some 1)
    (Program.find_by_name sp "p0.cold");
  (* Hot part is 256 bytes, cold part 256 bytes, p1 unchanged. *)
  let hot = Option.get (Program.find_by_name sp "p0") in
  Alcotest.(check int) "hot size" 256 (Program.size sp hot);
  let orig, is_hot = Split.origin s hot in
  Alcotest.(check int) "hot origin" 0 orig;
  Alcotest.(check bool) "hot flag" true is_hot

let test_split_no_split_when_uniform () =
  let program, chunks, _, _, _ = split_fixture () in
  let chunk_counts = [| 100; 100; 100 |] in
  let s = Split.split program chunks ~chunk_counts ~enter_counts:[| 100; 100 |] in
  Alcotest.(check int) "nothing split" 0 (Split.n_split s);
  Alcotest.(check int) "same proc count" 2 (Program.n_procs (Split.program s))

let test_split_remap_preserves_bytes () =
  let program, chunks, trace, chunk_counts, enter_counts = split_fixture () in
  let s = Split.split ~cold_fraction:0.2 program chunks ~chunk_counts ~enter_counts in
  let remapped = Split.remap_trace s trace in
  let bytes t = Trace.fold (fun acc (e : Event.t) -> acc + e.len) 0 t in
  Alcotest.(check int) "same bytes executed" (bytes trace) (bytes remapped);
  (* Every remapped event stays within its (new) procedure. *)
  let sp = Split.program s in
  Trace.iter
    (fun (e : Event.t) ->
      if e.offset + e.len > Program.size sp e.proc then
        Alcotest.failf "event out of bounds after remap")
    remapped

let test_split_remap_cuts_at_boundary () =
  let program, chunks, _, chunk_counts, enter_counts = split_fixture () in
  let s = Split.split ~cold_fraction:0.2 program chunks ~chunk_counts ~enter_counts in
  (* A run crossing the hot/cold boundary of p0 must split in two. *)
  let crossing = Trace.of_list [ ev ~kind:Event.Enter 0 200 112 ] in
  let remapped = Split.remap_trace s crossing in
  Alcotest.(check int) "two pieces" 2 (Trace.length remapped);
  let a = Trace.get remapped 0 and b = Trace.get remapped 1 in
  Alcotest.(check bool) "different parts" true (a.Event.proc <> b.Event.proc);
  Alcotest.(check int) "bytes preserved" 112 (a.Event.len + b.Event.len);
  Alcotest.(check bool) "second piece enters the cold part" true
    (b.Event.kind = Event.Enter)

(* --- Sim.paging -------------------------------------------------------------- *)

let page_program = Program.of_sizes [| 4096; 4096; 4096 |]

let page_trace procs = Trace.of_list (List.map (fun p -> ev ~kind:Event.Enter p 0 32) procs)

let test_paging_basic () =
  let layout = Layout.default page_program in
  let r =
    Sim.paging page_program layout ~page_size:4096 ~frames:2
      (page_trace [ 0; 1; 0; 1 ])
  in
  Alcotest.(check int) "2 faults" 2 r.Sim.page_faults;
  Alcotest.(check int) "2 pages" 2 r.Sim.pages_touched;
  Alcotest.(check int) "4 accesses" 4 r.Sim.page_accesses

let test_paging_lru_eviction () =
  let layout = Layout.default page_program in
  (* frames=2: 0 1 2 0 -> 0 evicted by 2, so the last 0 faults again. *)
  let r =
    Sim.paging page_program layout ~page_size:4096 ~frames:2
      (page_trace [ 0; 1; 2; 0 ])
  in
  Alcotest.(check int) "4 faults" 4 r.Sim.page_faults;
  (* 0 1 0 2 0: 2 evicts 1 (LRU), 0 stays resident. *)
  let r2 =
    Sim.paging page_program layout ~page_size:4096 ~frames:2
      (page_trace [ 0; 1; 0; 2; 0 ])
  in
  Alcotest.(check int) "3 faults" 3 r2.Sim.page_faults

let test_paging_spanning_event () =
  let program = Program.of_sizes [| 8192 |] in
  let layout = Layout.default program in
  let trace = Trace.of_list [ ev 0 4000 200 ] in
  let r = Sim.paging program layout ~page_size:4096 ~frames:4 trace in
  Alcotest.(check int) "two pages touched" 2 r.Sim.pages_touched

(* The resident set has [span / page_size + 2] pages; an event running
   further past the layout's end raises from it. *)
let test_paging_past_the_end () =
  let program = Program.of_sizes [| 4096 |] in
  let layout = Layout.default program in
  let trace = Trace.of_list [ ev 0 4000 (3 * 4096) ] in
  match Sim.paging program layout ~page_size:4096 ~frames:4 trace with
  | _ -> Alcotest.fail "a page past the resident set was accepted"
  | exception Invalid_argument _ -> ()

(* --- Plot ------------------------------------------------------------------- *)

let test_plot_cdf_renders () =
  let s = Plot.cdf [ ("a", [| 1.; 2.; 3. |]); ("b", [| 2.; 3.; 4. |]) ] in
  Alcotest.(check bool) "non-empty" true (String.length s > 200);
  Alcotest.(check bool) "mentions legend a" true
    (String.length s > 0 && String.index_opt s '*' <> None)

let test_plot_cdf_left_dominance () =
  (* A series of strictly smaller values must produce marks in columns to
     the left of the other series' first mark at the top row. *)
  let s = Plot.cdf ~width:40 ~height:10 [ ("lo", [| 1.; 1.1 |]); ("hi", [| 9.; 9.1 |]) ] in
  let first_line = List.hd (String.split_on_char '\n' s) in
  let lo_pos = String.index_opt first_line '*' in
  let hi_pos = String.index_opt first_line '+' in
  match (lo_pos, hi_pos) with
  | Some l, Some h -> Alcotest.(check bool) "lo left of hi" true (l < h)
  | _ -> Alcotest.fail "both series should reach the top row"

let test_plot_scatter_renders () =
  let s = Plot.scatter [ ("pts", [| (1., 1.); (2., 4.); (3., 9.) |]) ] in
  Alcotest.(check bool) "non-empty" true (String.length s > 100)

let test_plot_rejects_empty () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Plot.cdf []);
       false
     with Invalid_argument _ -> true)

(* --- Packed tie-breaking ------------------------------------------------------ *)

let test_node_occupancy () =
  let program = Program.of_sizes [| 64; 32 |] in
  let node = Node.union ~shift:3 ~modulo:8 (Node.singleton 0) (Node.singleton 1) in
  let wcg = Trg_profile.Graph.of_edges [] in
  let occ =
    Cost.occupancy (Cost.prepare (Cost.Wcg_procs { wcg }) program ~line_size:32 ~n_sets:8) node
  in
  Alcotest.(check (array bool)) "sets 0,1 (p0) and 3 (p1)"
    [| true; true; false; true; false; false; false; false |]
    occ

let test_best_offset_packed_prefers_empty () =
  let cost = Array.make 8 0. in
  let n1 = [| true; true; false; false; false; false; false; false |] in
  let n2 = [| true; false; false; false; false; false; false; false |] in
  (* All offsets cost 0; offsets 0 and 1 overlap n1's occupancy. *)
  Alcotest.(check int) "first non-overlapping" 2 (Cost.best_offset_packed cost ~n1 ~n2)

let test_best_offset_packed_cost_still_primary () =
  let cost = [| 0.; 5.; 0.; 0. |] in
  let n1 = [| true; false; false; false |] in
  let n2 = [| true; false; false; false |] in
  (* Offset 1 has positive cost; among 0-cost offsets, 0 overlaps. *)
  Alcotest.(check int) "cheapest non-overlap" 2 (Cost.best_offset_packed cost ~n1 ~n2)

(* --- Affinity-aware linearisation --------------------------------------------- *)

let test_linearize_affinity_orders_ties () =
  let program = Program.of_sizes [| 32; 32; 32 |] in
  (* Procs 1 and 2 both want set 1 (a tie after placing 0); affinity makes
     proc 2 win despite its larger id. *)
  let affinity p q = if p = 0 && q = 2 then 10. else 0. in
  let layout =
    Linearize.layout ~affinity program ~line_size:32 ~n_sets:8
      ~placed:[ (0, 0); (1, 1); (2, 1) ]
      ~filler:[||]
  in
  Alcotest.(check bool) "affine proc first" true
    (Layout.address layout 2 < Layout.address layout 1);
  (* Without affinity the smaller id wins. *)
  let plain =
    Linearize.layout program ~line_size:32 ~n_sets:8
      ~placed:[ (0, 0); (1, 1); (2, 1) ]
      ~filler:[||]
  in
  Alcotest.(check bool) "id order without affinity" true
    (Layout.address plain 1 < Layout.address plain 2)

let test_place_paged_same_alignments () =
  let r = Trg_eval.Runner.prepare (Bench.find "small") in
  let program = Trg_eval.Runner.program r in
  let a = Trg_eval.Runner.gbsc_layout r in
  let b = Gbsc.place_paged program r.Trg_eval.Runner.prof in
  let n_sets = 256 in
  (* Popular procedures keep their cache sets in both variants. *)
  let pop = r.Trg_eval.Runner.prof.Gbsc.popularity.Trg_profile.Popularity.ranked in
  Array.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "proc %d same set" p)
        (Layout.address a p / 32 mod n_sets)
        (Layout.address b p / 32 mod n_sets))
    pop

(* --- Extension experiments (smoke level) -------------------------------------- *)

let runner = lazy (Trg_eval.Runner.prepare (Bench.find "small"))

let test_sweep_runs () =
  let res = Trg_eval.Sweep.run ~sizes:[ 4096; 8192 ] (Bench.find "small") in
  Alcotest.(check int) "two rows" 2 (List.length res.Trg_eval.Sweep.rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "gbsc <= default" true
        (row.Trg_eval.Sweep.gbsc_mr <= row.Trg_eval.Sweep.default_mr))
    res.Trg_eval.Sweep.rows

let test_splitting_runs () =
  let res = Trg_eval.Splitting.run ~cold_fractions:[ 0.05 ] (Lazy.force runner) in
  match res.Trg_eval.Splitting.variants with
  | [ v ] ->
    Alcotest.(check bool) "split + GBSC no worse than default" true
      (v.Trg_eval.Splitting.gbsc_split_mr < res.Trg_eval.Splitting.default_mr)
  | _ -> Alcotest.fail "expected one variant"

let test_paging_experiment_runs () =
  let res = Trg_eval.Paging.run ~tight_frames:8 (Lazy.force runner) in
  Alcotest.(check int) "three rows" 3 (List.length res.Trg_eval.Paging.rows);
  let default = List.nth res.Trg_eval.Paging.rows 0 in
  let gbsc = List.nth res.Trg_eval.Paging.rows 1 in
  Alcotest.(check bool) "GBSC pages <= default pages" true
    (gbsc.Trg_eval.Paging.pages_touched <= default.Trg_eval.Paging.pages_touched)

let test_sampling_experiment_runs () =
  let res = Trg_eval.Sampling.run ~window:10_000 ~factors:[ 2 ] (Lazy.force runner) in
  match res.Trg_eval.Sampling.rows with
  | [ row ] ->
    Alcotest.(check bool) "half trace beats default" true
      (row.Trg_eval.Sampling.miss_rate < res.Trg_eval.Sampling.default_mr);
    Alcotest.(check bool) "used about half" true
      (abs (row.Trg_eval.Sampling.events_used - 100_000) < 20_000)
  | _ -> Alcotest.fail "expected one row"

let suite =
  [
    Alcotest.test_case "serial program roundtrip" `Quick test_serial_program_roundtrip;
    Alcotest.test_case "serial layout roundtrip" `Quick test_serial_layout_roundtrip;
    Alcotest.test_case "serial layout mismatch" `Quick test_serial_layout_program_mismatch;
    Alcotest.test_case "serial rejects garbage" `Quick test_serial_rejects_garbage;
    Alcotest.test_case "chunk counts" `Quick test_chunk_counts;
    Alcotest.test_case "split detects cold chunk" `Quick test_split_detects_cold_chunk;
    Alcotest.test_case "split skips uniform procs" `Quick test_split_no_split_when_uniform;
    Alcotest.test_case "split remap preserves bytes" `Quick test_split_remap_preserves_bytes;
    Alcotest.test_case "split remap cuts at boundary" `Quick test_split_remap_cuts_at_boundary;
    Alcotest.test_case "paging basic" `Quick test_paging_basic;
    Alcotest.test_case "paging LRU eviction" `Quick test_paging_lru_eviction;
    Alcotest.test_case "paging spanning event" `Quick test_paging_spanning_event;
    Alcotest.test_case "paging past the end raises" `Quick test_paging_past_the_end;
    Alcotest.test_case "plot cdf renders" `Quick test_plot_cdf_renders;
    Alcotest.test_case "plot cdf left dominance" `Quick test_plot_cdf_left_dominance;
    Alcotest.test_case "plot scatter renders" `Quick test_plot_scatter_renders;
    Alcotest.test_case "plot rejects empty" `Quick test_plot_rejects_empty;
    Alcotest.test_case "node occupancy" `Quick test_node_occupancy;
    Alcotest.test_case "packed offset prefers empty" `Quick test_best_offset_packed_prefers_empty;
    Alcotest.test_case "packed offset cost primary" `Quick test_best_offset_packed_cost_still_primary;
    Alcotest.test_case "linearize affinity ties" `Quick test_linearize_affinity_orders_ties;
    Alcotest.test_case "place_paged same alignments" `Quick test_place_paged_same_alignments;
    Alcotest.test_case "sweep experiment" `Quick test_sweep_runs;
    Alcotest.test_case "splitting experiment" `Quick test_splitting_runs;
    Alcotest.test_case "paging experiment" `Quick test_paging_experiment_runs;
    Alcotest.test_case "sampling experiment" `Quick test_sampling_experiment_runs;
  ]

(* --- Torrellas baseline -------------------------------------------------- *)

let test_torrellas_layout_valid () =
  let r = Lazy.force runner in
  let program = Trg_eval.Runner.program r in
  let layout = Trg_eval.Runner.torrellas_layout r in
  Alcotest.(check int) "all procs placed" (Program.n_procs program)
    (Array.length (Layout.order layout))

let test_torrellas_reserved_hot () =
  (* The hottest procedures sit below the reserved boundary and thus share
     lines with nothing else among the popular set. *)
  let r = Lazy.force runner in
  let program = Trg_eval.Runner.program r in
  let pop = r.Trg_eval.Runner.prof.Trg_place.Gbsc.popularity in
  let layout =
    Trg_place.Torrellas.place ~reserved_frac:0.25 r.Trg_eval.Runner.config program
      ~popularity:pop
  in
  let hottest = pop.Trg_profile.Popularity.ranked.(0) in
  Alcotest.(check bool) "hottest proc in reserved region of cache 0" true
    (Layout.address layout hottest + Program.size program hottest <= 2048)

let test_torrellas_reserved_frac_validation () =
  let r = Lazy.force runner in
  Alcotest.(check bool) "frac >= 1 rejected" true
    (try
       ignore
         (Trg_place.Torrellas.place ~reserved_frac:1.0 r.Trg_eval.Runner.config
            (Trg_eval.Runner.program r)
            ~popularity:r.Trg_eval.Runner.prof.Trg_place.Gbsc.popularity);
       false
     with Invalid_argument _ -> true)

let suite =
  suite
  @ [
      Alcotest.test_case "torrellas layout valid" `Quick test_torrellas_layout_valid;
      Alcotest.test_case "torrellas reserved hot" `Quick test_torrellas_reserved_hot;
      Alcotest.test_case "torrellas frac validation" `Quick test_torrellas_reserved_frac_validation;
    ]

(* --- Graph dot export / layout view --------------------------------------- *)

let test_graph_to_dot () =
  let g = Graph.of_edges [ (0, 1, 10.); (1, 2, 1.) ] in
  let dot = Graph.to_dot ~name:(fun i -> Printf.sprintf "n%d" i) g in
  Alcotest.(check bool) "has header" true (String.length dot > 0 && String.sub dot 0 5 = "graph");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "edge rendered" true (contains "\"n0\" -- \"n1\"" dot);
  let filtered = Graph.to_dot ~min_weight:5. g in
  Alcotest.(check bool) "light edge dropped" false (contains "label=\"1\"" filtered);
  Alcotest.(check bool) "dropped endpoint still listed as node" true (contains "\"2\";" filtered)

let test_view_cache_map () =
  let program = Program.of_sizes [| 64; 32 |] in
  let cache = Config.make ~size:128 ~line_size:32 ~assoc:1 in
  let layout = Layout.of_addresses program [| 0; 128 |] in
  let map = Trg_place.View.cache_map program cache layout in
  let lines = String.split_on_char '\n' (String.trim map) in
  (* p0 covers sets 0-1; p1 wraps to set 0: set 0 has both. *)
  Alcotest.(check bool) "set 0 row lists both" true
    (List.exists
       (fun l ->
         let has s =
           let nl = String.length s and hl = String.length l in
           let rec go i = i + nl <= hl && (String.sub l i nl = s || go (i + 1)) in
           go 0
         in
         has "000-000" && has "p0" && has "p1")
       lines)

(* A procedure that starts mid-line spills into one more line than its
   size alone needs: bytes 20-39 cover sets 0 and 1. *)
let test_view_mid_line_start () =
  let program = Program.of_sizes [| 20; 20 |] in
  let cache = Config.make ~size:128 ~line_size:32 ~assoc:1 in
  let layout = Layout.of_addresses program [| 0; 20 |] in
  Alcotest.(check string) "p1 in sets 0 and 1"
    "  sets 000-000: p0 p1\n  sets 001-001: p1\n  sets 002-003: -\n"
    (Trg_place.View.cache_map program cache layout)

let test_view_occupancy_summary () =
  let program = Program.of_sizes [| 64; 32 |] in
  let cache = Config.make ~size:128 ~line_size:32 ~assoc:1 in
  let layout = Layout.of_addresses program [| 0; 128 |] in
  let s = Trg_place.View.occupancy_summary program cache layout in
  Alcotest.(check bool) "summary non-empty" true (String.length s > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "graph to_dot" `Quick test_graph_to_dot;
      Alcotest.test_case "view cache map" `Quick test_view_cache_map;
      Alcotest.test_case "view mid-line start" `Quick test_view_mid_line_start;
      Alcotest.test_case "view occupancy summary" `Quick test_view_occupancy_summary;
    ]
