(* Final coverage batch: corner cases in under-exercised code paths. *)

module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Serial = Trg_program.Serial
module Config = Trg_cache.Config
module Sim = Trg_cache.Sim
module Hierarchy = Trg_cache.Hierarchy
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace
module Stats = Trg_util.Stats
module Table = Trg_util.Table
module Linearize = Trg_place.Linearize
module Split = Trg_place.Split
module Behavior = Trg_synth.Behavior
module Walker = Trg_synth.Walker

(* --- Linearize gap filling priorities ------------------------------------ *)

let test_linearize_largest_fit_first () =
  (* A 13-line gap; fillers of 100, 200 and 60 bytes: the 200-byte filler
     goes in first even though it appears last, and all three fit. *)
  let program = Program.of_sizes [| 32; 32; 100; 200; 60 |] in
  let layout =
    Linearize.layout program ~line_size:32 ~n_sets:16
      ~placed:[ (0, 0); (1, 14) ]
      ~filler:[| 2; 3; 4 |]
  in
  Alcotest.(check int) "largest filler leads the gap" 32 (Layout.address layout 3);
  Alcotest.(check bool) "all fit before the second popular proc" true
    (Layout.address layout 2 < 14 * 32 && Layout.address layout 4 < 14 * 32)

let test_linearize_filler_too_big_appended () =
  (* Gap of 2 lines but the only filler needs 3: it must go to the end. *)
  let program = Program.of_sizes [| 32; 32; 96 |] in
  let layout =
    Linearize.layout program ~line_size:32 ~n_sets:8
      ~placed:[ (0, 0); (1, 3) ]
      ~filler:[| 2 |]
  in
  Alcotest.(check bool) "appended after populars" true
    (Layout.address layout 2 > Layout.address layout 1)

let test_linearize_no_populars () =
  let program = Program.of_sizes [| 40; 50 |] in
  let layout =
    Linearize.layout program ~line_size:32 ~n_sets:8 ~placed:[] ~filler:[| 0; 1 |]
  in
  Alcotest.(check int) "fillers packed from zero" 0 (Layout.address layout 0)

(* --- Walker pattern mechanics ---------------------------------------------- *)

let walker_program = Program.of_sizes [| 64; 32; 32; 32 |]

(* main loops over a selector of procs 1 and 2 with a given pattern. *)
let walker_behavior pattern =
  Behavior.make
    [|
      [
        Trg_synth.Behavior.Block { off = 0; len = 16 };
        Behavior.Loop
          {
            lo = 12;
            hi = 12;
            body =
              [
                Behavior.Select { sid = 0; callees = [| 1; 2 |]; pattern };
                Behavior.Block { off = 16; len = 16 };
              ];
          };
      ];
      [ Behavior.Block { off = 0; len = 32 } ];
      [ Behavior.Block { off = 0; len = 32 } ];
      [ Behavior.Block { off = 0; len = 32 } ];
    |]

let callee_sequence pattern n =
  let params = { Walker.default_params with Walker.target_events = n } in
  let trace = Walker.run walker_program (walker_behavior pattern) params in
  List.filter_map
    (fun (e : Event.t) ->
      if e.kind = Event.Enter && e.proc > 0 then Some e.proc else None)
    (Trace.to_list trace)

let test_walker_round_robin_alternates () =
  let seq = callee_sequence Behavior.Round_robin 40 in
  List.iteri
    (fun i p -> Alcotest.(check int) "alternating" (1 + (i mod 2)) p)
    seq

let test_walker_blocked_runs () =
  let seq = callee_sequence (Behavior.Blocked 4) 60 in
  (* Blocked 4 over [1; 2]: 1 1 1 1 2 2 2 2 1 ... *)
  List.iteri
    (fun i p -> Alcotest.(check int) "blocked run of 4" (1 + (i / 4 mod 2)) p)
    seq

let test_walker_weighted_skews () =
  let seq = callee_sequence (Behavior.Weighted 1.5) 400 in
  let ones = List.length (List.filter (fun p -> p = 1) seq) in
  let twos = List.length (List.filter (fun p -> p = 2) seq) in
  Alcotest.(check bool)
    (Printf.sprintf "rank 0 dominates (%d vs %d)" ones twos)
    true (ones > twos)

(* --- Serial channel round trips -------------------------------------------- *)

let test_serial_channel_roundtrip () =
  let program = Program.of_sizes [| 10; 20 |] in
  let path = Filename.temp_file "trgplace" ".roundtrip" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Serial.write_program oc program;
      Serial.write_layout oc (Layout.default program);
      close_out oc;
      let ic = open_in path in
      let p' = Serial.read_program ic in
      let l' = Serial.read_layout p' ic in
      close_in ic;
      Alcotest.(check int) "program survives" 2 (Program.n_procs p');
      Alcotest.(check int) "layout survives" 12 (Layout.address l' 1))

(* --- Stats / Table odds and ends -------------------------------------------- *)

let test_spearman_with_ties () =
  let xs = [| 1.; 2.; 2.; 3. |] and ys = [| 10.; 20.; 20.; 30. |] in
  Alcotest.(check (float 1e-9)) "perfect with ties" 1. (Stats.spearman xs ys)

let test_table_align_override () =
  let s =
    Table.render
      ~align:[ Table.Right; Table.Left ]
      ~header:[ "n"; "name" ]
      [ [ "1"; "a" ] ]
  in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* --- Split.origin on unsplit procedures -------------------------------------- *)

let test_split_origin_unsplit () =
  let program = Program.of_sizes [| 256 |] in
  let chunks = Trg_program.Chunk.make ~chunk_size:256 program in
  let s = Split.split program chunks ~chunk_counts:[| 5 |] ~enter_counts:[| 5 |] in
  let orig, hot = Split.origin s 0 in
  Alcotest.(check int) "origin id" 0 orig;
  Alcotest.(check bool) "single part counted hot" true hot

(* --- Simulator trivia ----------------------------------------------------------- *)

let test_sim_empty_trace () =
  let program = Program.of_sizes [| 32 |] in
  let r =
    Sim.simulate program (Layout.default program) Config.default (Trace.of_list [])
  in
  Alcotest.(check int) "no accesses" 0 r.Sim.accesses;
  Alcotest.(check (float 1e-9)) "zero miss rate" 0. (Sim.miss_rate r)

let test_hierarchy_empty_trace () =
  let program = Program.of_sizes [| 32 |] in
  let level config hit_cycles =
    { Hierarchy.config; policy = Trg_cache.Policy.Lru; hit_cycles }
  in
  let hier =
    Hierarchy.make
      ~levels:
        [
          level (Config.make ~size:8192 ~line_size:32 ~assoc:1) 1;
          level (Config.make ~size:65536 ~line_size:64 ~assoc:4) 10;
        ]
      ~memory_cycles:100
  in
  let h =
    Hierarchy.simulate program (Layout.default program) hier (Trace.of_list [])
  in
  Alcotest.(check (float 1e-9)) "amat zero on empty" 0. h.Hierarchy.amat

let suite =
  [
    Alcotest.test_case "linearize largest-fit first" `Quick test_linearize_largest_fit_first;
    Alcotest.test_case "linearize oversized filler appended" `Quick test_linearize_filler_too_big_appended;
    Alcotest.test_case "linearize no populars" `Quick test_linearize_no_populars;
    Alcotest.test_case "walker round-robin" `Quick test_walker_round_robin_alternates;
    Alcotest.test_case "walker blocked runs" `Quick test_walker_blocked_runs;
    Alcotest.test_case "walker weighted skew" `Quick test_walker_weighted_skews;
    Alcotest.test_case "serial channel roundtrip" `Quick test_serial_channel_roundtrip;
    Alcotest.test_case "spearman with ties" `Quick test_spearman_with_ties;
    Alcotest.test_case "table align override" `Quick test_table_align_override;
    Alcotest.test_case "split origin unsplit" `Quick test_split_origin_unsplit;
    Alcotest.test_case "sim empty trace" `Quick test_sim_empty_trace;
    Alcotest.test_case "hierarchy empty trace" `Quick test_hierarchy_empty_trace;
  ]
