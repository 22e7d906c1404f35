module Config = Trg_cache.Config
module Sim = Trg_cache.Sim
module Policy = Trg_cache.Policy
module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace

let ev kind proc offset len = Event.make ~kind ~proc ~offset ~len

let test_config_default () =
  Alcotest.(check int) "lines" 256 (Config.n_lines Config.default);
  Alcotest.(check int) "sets" 256 (Config.n_sets Config.default)

let test_config_validation () =
  Alcotest.(check bool) "indivisible" true
    (try
       ignore (Config.make ~size:100 ~line_size:32 ~assoc:1);
       false
     with Invalid_argument _ -> true)

let test_config_assoc_sets () =
  let c = Config.make ~size:8192 ~line_size:32 ~assoc:2 in
  Alcotest.(check int) "sets" 128 (Config.n_sets c);
  Alcotest.(check int) "lines" 256 (Config.n_lines c)

let test_lines_of_bytes () =
  let c = Config.default in
  Alcotest.(check int) "0" 0 (Config.lines_of_bytes c 0);
  Alcotest.(check int) "1" 1 (Config.lines_of_bytes c 1);
  Alcotest.(check int) "32" 1 (Config.lines_of_bytes c 32);
  Alcotest.(check int) "33" 2 (Config.lines_of_bytes c 33)

(* Two procedures, one cache line each, 2-line direct-mapped cache. *)
let tiny = Program.of_sizes [| 32; 32 |]

let tiny_cache = Config.make ~size:64 ~line_size:32 ~assoc:1

let ref_trace procs =
  Trace.of_list (List.map (fun p -> ev Event.Enter p 0 32) procs)

let test_dm_no_conflict () =
  (* p0 -> line 0, p1 -> line 1: alternating references hit after warmup. *)
  let layout = Layout.of_addresses tiny [| 0; 32 |] in
  let r = Sim.simulate tiny layout tiny_cache (ref_trace [ 0; 1; 0; 1; 0; 1 ]) in
  Alcotest.(check int) "accesses" 6 r.Sim.accesses;
  Alcotest.(check int) "2 compulsory misses" 2 r.Sim.misses

let test_dm_conflict () =
  (* Both procedures on line 0: every access misses. *)
  let layout = Layout.of_addresses tiny [| 0; 64 |] in
  let r = Sim.simulate tiny layout tiny_cache (ref_trace [ 0; 1; 0; 1; 0; 1 ]) in
  Alcotest.(check int) "all miss" 6 r.Sim.misses

let test_dm_same_proc_hits () =
  let layout = Layout.of_addresses tiny [| 0; 32 |] in
  let r = Sim.simulate tiny layout tiny_cache (ref_trace [ 0; 0; 0; 0 ]) in
  Alcotest.(check int) "1 miss" 1 r.Sim.misses

let test_multiline_event () =
  (* A 100-byte run starting at address 0 touches lines 0..3. *)
  let p = Program.of_sizes [| 128 |] in
  let layout = Layout.of_addresses p [| 0 |] in
  let t = Trace.of_list [ ev Event.Enter 0 0 100 ] in
  let r = Sim.simulate p layout Config.default t in
  Alcotest.(check int) "4 line accesses" 4 r.Sim.accesses;
  Alcotest.(check int) "4 misses" 4 r.Sim.misses

let test_unaligned_proc_start () =
  (* Procedure starting mid-line at 16: bytes [16,48) touch lines 0 and 1. *)
  let p = Program.of_sizes [| 32; 16 |] in
  let layout = Layout.of_addresses p [| 16; 0 |] in
  let t = Trace.of_list [ ev Event.Enter 0 0 32 ] in
  let r = Sim.simulate p layout Config.default t in
  Alcotest.(check int) "2 lines touched" 2 r.Sim.accesses

let test_lru_2way_avoids_conflict () =
  (* 2-way 64B cache = 1 set of 2 ways: two alternating lines both fit. *)
  let cache2 = Config.make ~size:64 ~line_size:32 ~assoc:2 in
  let layout = Layout.of_addresses tiny [| 0; 64 |] in
  let r = Sim.simulate tiny layout cache2 (ref_trace [ 0; 1; 0; 1; 0; 1 ]) in
  Alcotest.(check int) "only compulsory misses" 2 r.Sim.misses

let test_lru_eviction_order () =
  (* 1 set, 2 ways; refs A B C A: C evicts A (LRU), so the final A misses. *)
  let p = Program.of_sizes [| 32; 32; 32 |] in
  let cache2 = Config.make ~size:64 ~line_size:32 ~assoc:2 in
  let layout = Layout.of_addresses p [| 0; 64; 128 |] in
  let r = Sim.simulate p layout cache2 (ref_trace [ 0; 1; 2; 0 ]) in
  Alcotest.(check int) "4 misses" 4 r.Sim.misses;
  (* refs A B A C: A is MRU when C arrives, so C evicts B; A still hits. *)
  let r2 = Sim.simulate p layout cache2 (ref_trace [ 0; 1; 0; 2; 0 ]) in
  Alcotest.(check int) "A stays resident" 3 r2.Sim.misses

let test_miss_rate () =
  let layout = Layout.of_addresses tiny [| 0; 32 |] in
  let r = Sim.simulate tiny layout tiny_cache (ref_trace [ 0; 1; 0; 1 ]) in
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Sim.miss_rate r)

let test_distinct_lines () =
  let layout = Layout.of_addresses tiny [| 0; 32 |] in
  let n = Sim_ref.distinct_lines tiny layout tiny_cache (ref_trace [ 0; 1; 0; 1 ]) in
  Alcotest.(check int) "2 distinct" 2 n

(* Lines past the layout's span count like any other, from the packed
   words; no event, no line. *)
let test_distinct_lines_past_span () =
  let p = Program.of_sizes [| 32; 32 |] in
  let layout = Layout.of_addresses p [| 64; 0 |] in
  let t = Trace.of_list [ ev Event.Enter 0 0 200; ev Event.Enter 1 0 8; ev Event.Enter 0 40 8 ] in
  Alcotest.(check int) "lines 2-8 and 0" 8 (Sim_ref.distinct_lines p layout tiny_cache t);
  Alcotest.(check int) "empty trace" 0 (Sim_ref.distinct_lines p layout tiny_cache (Trace.of_list []))

(* At the paper's point the tag array is read unchecked, but the
   procedure's address is not: an event of a procedure the program
   lacks raises. *)
let test_unknown_proc_raises () =
  let p = Program.of_sizes [| 64; 64 |] in
  let t = Trace.of_list [ ev Event.Enter 0 0 8; ev Event.Enter 2 0 8 ] in
  match Sim.simulate p (Layout.default p) Config.default t with
  | _ -> Alcotest.fail "an event of procedure 2 of 2 was simulated"
  | exception Invalid_argument _ -> ()

(* At the paper's point a simulation allocates per run, not per event:
   the same words over 100k events as over 200k, with events of one to
   four lines. *)
let test_paper_point_allocation () =
  let n_procs = 64 in
  let program = Program.of_sizes (Array.make n_procs 256) in
  let layout = Layout.default program in
  let trace n =
    let b = Trace.Builder.create ~capacity:n () in
    for i = 0 to n - 1 do
      Trace.Builder.add b
        (ev Event.Run (i * 7919 mod n_procs) (16 * (i mod 9)) (1 + (i * 31 mod 100)))
    done;
    Trace.Builder.build b
  in
  let words t =
    let a0 = Trg_eval.Perfrun.allocated_words () in
    ignore (Sys.opaque_identity (Sim.simulate program layout Config.default t));
    Trg_eval.Perfrun.allocated_words () -. a0
  in
  let small = trace 100_000 and large = trace 200_000 in
  ignore (words small);
  Alcotest.(check (float 0.)) "words at 200k = words at 100k" (words small) (words large)

(* Property: a cache big enough to hold everything has exactly
   distinct_lines misses, and misses never exceed accesses. *)
let prop_compulsory_floor =
  QCheck.Test.make ~name:"huge cache gives compulsory misses only" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 0 4))
    (fun refs ->
      let p = Program.of_sizes [| 64; 96; 32; 128; 64 |] in
      let layout = Layout.default p in
      let trace = ref_trace (List.map (fun r -> r mod 5) refs) in
      let huge = Config.make ~size:(1 lsl 20) ~line_size:32 ~assoc:1 in
      let r = Sim.simulate p layout huge trace in
      r.Sim.misses = Sim_ref.distinct_lines p layout huge trace
      && r.Sim.misses <= r.Sim.accesses)

(* Property: higher associativity at equal size never loses to direct-mapped
   on these small alternating traces... not true in general (LRU anomalies),
   but misses must always be bounded by accesses and at least the
   compulsory floor. *)
let prop_miss_bounds =
  QCheck.Test.make ~name:"misses bounded by floor and accesses" ~count:50
    QCheck.(pair (int_range 1 4) (list_of_size (Gen.int_range 1 80) (int_range 0 7)))
    (fun (assoc, refs) ->
      let p = Program.of_sizes (Array.make 8 64) in
      let layout = Layout.default p in
      let trace = ref_trace (List.map (fun r -> r mod 8) refs) in
      let cache = Config.make ~size:(256 * assoc) ~line_size:32 ~assoc in
      let r = Sim.simulate p layout cache trace in
      let floor = Sim_ref.distinct_lines p layout cache trace in
      r.Sim.misses >= floor && r.Sim.misses <= r.Sim.accesses)

let suite =
  [
    Alcotest.test_case "config default" `Quick test_config_default;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config assoc sets" `Quick test_config_assoc_sets;
    Alcotest.test_case "lines_of_bytes" `Quick test_lines_of_bytes;
    Alcotest.test_case "DM no conflict" `Quick test_dm_no_conflict;
    Alcotest.test_case "DM conflict" `Quick test_dm_conflict;
    Alcotest.test_case "DM same proc hits" `Quick test_dm_same_proc_hits;
    Alcotest.test_case "multiline event" `Quick test_multiline_event;
    Alcotest.test_case "unaligned proc start" `Quick test_unaligned_proc_start;
    Alcotest.test_case "LRU 2-way avoids conflict" `Quick test_lru_2way_avoids_conflict;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "miss rate" `Quick test_miss_rate;
    Alcotest.test_case "distinct lines" `Quick test_distinct_lines;
    Alcotest.test_case "distinct lines past the span" `Quick test_distinct_lines_past_span;
    Alcotest.test_case "unknown procedure raises" `Quick test_unknown_proc_raises;
    Alcotest.test_case "paper point allocates per run" `Quick test_paper_point_allocation;
    QCheck_alcotest.to_alcotest prop_compulsory_floor;
    QCheck_alcotest.to_alcotest prop_miss_bounds;
  ]

let test_plru_equals_direct_mapped () =
  let layout = Layout.of_addresses tiny [| 0; 32 |] in
  let trace = ref_trace [ 0; 1; 0; 1; 0 ] in
  let lru = Sim.simulate tiny layout tiny_cache trace in
  let plru = Sim.simulate ~policy:Policy.Plru tiny layout tiny_cache trace in
  Alcotest.(check int) "assoc=1: identical" lru.Sim.misses plru.Sim.misses

let test_plru_two_way_basic () =
  (* 1 set of 2 ways; two alternating lines fit under PLRU just as under
     LRU. *)
  let cache2 = Config.make ~size:64 ~line_size:32 ~assoc:2 in
  let layout = Layout.of_addresses tiny [| 0; 64 |] in
  let r =
    Sim.simulate ~policy:Policy.Plru tiny layout cache2
      (ref_trace [ 0; 1; 0; 1; 0; 1 ])
  in
  Alcotest.(check int) "compulsory only" 2 r.Sim.misses

let test_plru_rejects_non_power_of_two () =
  let p3 = Program.of_sizes [| 32 |] in
  let cache3 = Config.make ~size:(3 * 32) ~line_size:32 ~assoc:3 in
  Alcotest.(check bool) "assoc=3 rejected" true
    (try
       ignore
         (Sim.simulate ~policy:Policy.Plru p3 (Layout.default p3) cache3
            (ref_trace [ 0 ]));
       false
     with Invalid_argument _ -> true)

let prop_plru_vs_lru_bounds =
  QCheck.Test.make ~name:"PLRU misses within sane bounds of LRU" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 120) (int_range 0 7))
    (fun refs ->
      let p = Program.of_sizes (Array.make 8 32) in
      let layout = Layout.default p in
      let cache = Config.make ~size:(4 * 32) ~line_size:32 ~assoc:4 in
      let trace = ref_trace (List.map (fun r -> r mod 8) refs) in
      let lru = Sim.simulate p layout cache trace in
      let plru = Sim.simulate ~policy:Policy.Plru p layout cache trace in
      let floor = Sim_ref.distinct_lines p layout cache trace in
      plru.Sim.misses >= floor
      && plru.Sim.misses <= plru.Sim.accesses
      && plru.Sim.accesses = lru.Sim.accesses)

let suite =
  suite
  @ [
      Alcotest.test_case "PLRU equals DM at assoc 1" `Quick test_plru_equals_direct_mapped;
      Alcotest.test_case "PLRU 2-way basic" `Quick test_plru_two_way_basic;
      Alcotest.test_case "PLRU rejects assoc=3" `Quick test_plru_rejects_non_power_of_two;
      QCheck_alcotest.to_alcotest prop_plru_vs_lru_bounds;
    ]
