(* Miss attribution: the 3C classification invariants, conflict-matrix
   accounting, the set-preserving layout normalisation, and the telemetry
   namespacing of the simulate entry points. *)

module Config = Trg_cache.Config
module Sim = Trg_cache.Sim
module Attrib = Trg_cache.Attrib
module Hierarchy = Trg_cache.Hierarchy
module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace
module Metrics = Trg_obs.Metrics
module Runner = Trg_eval.Runner
module Explain = Trg_eval.Explain

let ev kind proc offset len = Event.make ~kind ~proc ~offset ~len

let ref_trace procs =
  Trace.of_list (List.map (fun p -> ev Event.Enter p 0 32) procs)

(* One prepared benchmark shared by the macro tests; preparation is
   deterministic, so sharing cannot leak state between tests. *)
let prepared = lazy (Runner.prepare (Trg_synth.Bench.find "small"))

(* Every structural invariant the attribution result promises, checked
   against an independent scoreboard simulation of the same inputs. *)
let check_invariants label program layout config trace =
  let a = Attrib.simulate program layout config trace in
  let r = a.Attrib.result in
  let plain = Sim.simulate program layout config trace in
  Alcotest.(check bool) (label ^ ": matches Sim.simulate") true (r = plain);
  Alcotest.(check int)
    (label ^ ": 3C partition")
    r.Sim.misses
    (a.Attrib.compulsory + a.Attrib.capacity + a.Attrib.conflict);
  Alcotest.(check int)
    (label ^ ": compulsory = distinct lines")
    (Sim.distinct_lines program layout config trace)
    a.Attrib.compulsory;
  Alcotest.(check int)
    (label ^ ": distinct_lines field")
    a.Attrib.compulsory a.Attrib.distinct_lines;
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 a.Attrib.per_proc in
  Alcotest.(check int)
    (label ^ ": per-proc accesses sum")
    r.Sim.accesses
    (sum (fun s -> s.Attrib.p_accesses));
  Alcotest.(check int)
    (label ^ ": per-proc misses sum")
    r.Sim.misses
    (sum (fun s -> s.Attrib.p_misses));
  Alcotest.(check int)
    (label ^ ": per-proc conflicts sum")
    a.Attrib.conflict
    (sum (fun s -> s.Attrib.p_conflicts));
  Alcotest.(check (array int))
    (label ^ ": conflict-matrix row sums")
    (Array.map (fun s -> s.Attrib.p_conflicts) a.Attrib.per_proc)
    (Attrib.conflict_row_sums a);
  Alcotest.(check int)
    (label ^ ": set misses sum")
    r.Sim.misses
    (Array.fold_left ( + ) 0 a.Attrib.set_misses);
  Alcotest.(check int)
    (label ^ ": timeline sum")
    r.Sim.misses
    (Array.fold_left ( + ) 0 a.Attrib.timeline);
  a

(* Two one-line procedures forced onto the same cache line of a 2-line
   direct-mapped cache: the shadow cache holds both lines, so after the
   two first touches every miss is a pure conflict miss, attributed to
   the alternating (evictor, victim) pair. *)
let test_micro_conflict () =
  let program = Program.of_sizes [| 32; 32 |] in
  let cache = Config.make ~size:64 ~line_size:32 ~assoc:1 in
  let layout = Layout.of_addresses program [| 0; 64 |] in
  let trace = ref_trace [ 0; 1; 0; 1; 0; 1 ] in
  let a = check_invariants "micro-conflict" program layout cache trace in
  Alcotest.(check int) "compulsory" 2 a.Attrib.compulsory;
  Alcotest.(check int) "capacity" 0 a.Attrib.capacity;
  Alcotest.(check int) "conflict" 4 a.Attrib.conflict;
  Alcotest.(check bool) "pair attribution" true
    (Array.to_list a.Attrib.conflict_pairs = [ (0, 1, 2); (1, 0, 2) ]
    || Array.to_list a.Attrib.conflict_pairs = [ (1, 0, 2); (0, 1, 2) ])

(* The same reference pattern against a 1-line cache: now the shadow
   cache (capacity 1 line) misses too, so nothing is a conflict — the
   working set simply does not fit. *)
let test_micro_capacity () =
  let program = Program.of_sizes [| 32; 32 |] in
  let cache = Config.make ~size:32 ~line_size:32 ~assoc:1 in
  let layout = Layout.of_addresses program [| 0; 32 |] in
  let trace = ref_trace [ 0; 1; 0; 1; 0; 1 ] in
  let a = check_invariants "micro-capacity" program layout cache trace in
  Alcotest.(check int) "compulsory" 2 a.Attrib.compulsory;
  Alcotest.(check int) "capacity" 4 a.Attrib.capacity;
  Alcotest.(check int) "conflict" 0 a.Attrib.conflict

(* Traces loaded from files need not agree with the program
   (Event.make allows any offset below 2^24), so Attrib.simulate must
   reject events that leave their procedure or reference a procedure
   the program does not have, instead of indexing tables sized by the
   layout span. *)
let test_rejects_mismatched_trace () =
  let program = Program.of_sizes [| 32; 32 |] in
  let cache = Config.make ~size:64 ~line_size:32 ~assoc:1 in
  let layout = Layout.of_addresses program [| 0; 64 |] in
  let expect_invalid label trace =
    match Attrib.simulate program layout cache trace with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "run past procedure end"
    (Trace.of_list [ ev Event.Enter 0 0 32; ev Event.Run 0 16 32 ]);
  expect_invalid "offset past procedure end"
    (Trace.of_list [ ev Event.Enter 1 4096 32 ]);
  expect_invalid "unknown procedure" (Trace.of_list [ ev Event.Enter 7 0 8 ])

let test_invariants_on_benchmark () =
  let r = Lazy.force prepared in
  let program = Runner.program r in
  let dm = Config.make ~size:8192 ~line_size:32 ~assoc:1 in
  let sa = Config.make ~size:8192 ~line_size:32 ~assoc:4 in
  List.iter
    (fun (label, layout) ->
      ignore (check_invariants (label ^ "/dm") program layout dm r.Runner.test);
      ignore (check_invariants (label ^ "/4way") program layout sa r.Runner.test))
    [
      ("default", Runner.default_layout r);
      ("ph", Runner.ph_layout r);
      ("gbsc", Runner.gbsc_layout r);
    ]

(* A fully-associative cache has no placement-induced misses: the real
   cache and the shadow cache are the same machine, so the conflict
   class must be exactly empty. *)
let test_fully_assoc_no_conflict () =
  let r = Lazy.force prepared in
  let program = Runner.program r in
  let cache = Config.make ~size:8192 ~line_size:32 ~assoc:256 in
  let a =
    check_invariants "fully-assoc" program (Runner.default_layout r) cache
      r.Runner.test
  in
  Alcotest.(check int) "no conflict misses" 0 a.Attrib.conflict;
  Alcotest.(check bool) "empty conflict matrix" true
    (Array.length a.Attrib.conflict_pairs = 0)

(* The acceptance headline: with layouts normalised (set-preserving line
   alignment), compulsory misses are identical across layouts and GBSC
   shows strictly fewer conflict misses than PH. *)
let test_gbsc_beats_ph () =
  let r = Lazy.force prepared in
  let e = Explain.of_runner ~algos:[ "ph"; "gbsc" ] r in
  match e.Explain.layouts with
  | [ ph; gbsc ] ->
    Alcotest.(check string) "first is ph" "ph" ph.Explain.label;
    Alcotest.(check int) "compulsory identical"
      ph.Explain.attrib.Attrib.compulsory gbsc.Explain.attrib.Attrib.compulsory;
    Alcotest.(check bool) "gbsc has strictly fewer conflicts" true
      (gbsc.Explain.attrib.Attrib.conflict < ph.Explain.attrib.Attrib.conflict)
  | layouts -> Alcotest.failf "expected 2 reports, got %d" (List.length layouts)

let test_line_align () =
  let r = Lazy.force prepared in
  let program = Runner.program r in
  let line_size = 32 and n_sets = 256 in
  List.iter
    (fun (label, layout) ->
      let aligned = Layout.line_align ~line_size ~n_sets program layout in
      Alcotest.(check (array int))
        (label ^ ": order preserved")
        (Layout.order layout) (Layout.order aligned);
      Array.iteri
        (fun p a ->
          if a mod line_size <> 0 then
            Alcotest.failf "%s: proc %d starts mid-line (addr %d)" label p a;
          let set addr = addr / line_size mod n_sets in
          Alcotest.(check int)
            (Printf.sprintf "%s: proc %d keeps its set" label p)
            (set (Layout.address layout p))
            (set a))
        (Layout.addresses aligned))
    [ ("default", Runner.default_layout r); ("gbsc", Runner.gbsc_layout r) ]

(* Every simulate entry point must feed its telemetry namespace: the
   scoreboard under sim/, paging under sim/page/, the multi-level
   hierarchy under hier/. *)
let test_entry_points_feed_counters () =
  let program = Program.of_sizes [| 32; 32 |] in
  let layout = Layout.of_addresses program [| 0; 64 |] in
  let trace = ref_trace [ 0; 1; 0; 1 ] in
  let counter name = Metrics.counter name in
  let snap names = List.map (fun n -> Metrics.value (counter n)) names in
  let expect_growth label names before =
    List.iter2
      (fun name (b, a) ->
        if a <= b then Alcotest.failf "%s: counter %s did not grow" label name)
      names
      (List.combine before (snap names))
  in
  let l1 = Config.make ~size:64 ~line_size:32 ~assoc:1 in
  let l1_names = [ "sim/simulations"; "sim/accesses"; "sim/misses" ] in
  let before = snap l1_names in
  ignore (Sim.simulate program layout l1 trace);
  expect_growth "simulate" l1_names before;
  let before = snap l1_names in
  ignore (Sim.simulate ~policy:Trg_cache.Policy.Plru program layout
            (Config.make ~size:64 ~line_size:32 ~assoc:2) trace);
  expect_growth "simulate plru" l1_names before;
  let hier_names =
    [
      "hier/simulations"; "hier/cycles"; "hier/l1/accesses"; "hier/l1/misses";
      "hier/l2/accesses"; "hier/l2/misses";
    ]
  in
  let level config = { Hierarchy.config; policy = Trg_cache.Policy.Lru; hit_cycles = 1 } in
  let hier =
    Hierarchy.make
      ~levels:[ level l1; level (Config.make ~size:128 ~line_size:32 ~assoc:1) ]
      ~memory_cycles:10
  in
  let before = snap hier_names in
  ignore (Hierarchy.simulate program layout hier trace);
  expect_growth "hierarchy" hier_names before;
  let page_names = [ "sim/page/accesses"; "sim/page/faults" ] in
  let before = snap page_names in
  ignore (Sim.paging program layout ~page_size:64 ~frames:1 trace);
  expect_growth "paging" page_names before

(* Attribution runs feed their own attrib/* namespace, with the class
   counters partitioning the miss counter. *)
let test_attrib_counters () =
  let program = Program.of_sizes [| 32; 32 |] in
  let layout = Layout.of_addresses program [| 0; 64 |] in
  let trace = ref_trace [ 0; 1; 0; 1; 0; 1 ] in
  let cache = Config.make ~size:64 ~line_size:32 ~assoc:1 in
  let names =
    [
      "attrib/simulations"; "attrib/accesses"; "attrib/misses";
      "attrib/compulsory"; "attrib/capacity"; "attrib/conflict";
    ]
  in
  let before = List.map (fun n -> Metrics.value (Metrics.counter n)) names in
  ignore (Attrib.simulate program layout cache trace);
  let delta =
    List.map2
      (fun n b -> (n, Metrics.value (Metrics.counter n) - b))
      names before
  in
  Alcotest.(check int) "one simulation" 1 (List.assoc "attrib/simulations" delta);
  Alcotest.(check int) "accesses" 6 (List.assoc "attrib/accesses" delta);
  Alcotest.(check int) "misses partitioned" (List.assoc "attrib/misses" delta)
    (List.assoc "attrib/compulsory" delta
    + List.assoc "attrib/capacity" delta
    + List.assoc "attrib/conflict" delta)

let suite =
  [
    Alcotest.test_case "micro conflict classification" `Quick test_micro_conflict;
    Alcotest.test_case "micro capacity classification" `Quick test_micro_capacity;
    Alcotest.test_case "rejects trace/program mismatch" `Quick
      test_rejects_mismatched_trace;
    Alcotest.test_case "invariants on benchmark" `Quick test_invariants_on_benchmark;
    Alcotest.test_case "fully associative has no conflicts" `Quick
      test_fully_assoc_no_conflict;
    Alcotest.test_case "gbsc beats ph on conflicts" `Quick test_gbsc_beats_ph;
    Alcotest.test_case "line_align preserves sets and order" `Quick test_line_align;
    Alcotest.test_case "entry points feed sim counters" `Quick
      test_entry_points_feed_counters;
    Alcotest.test_case "attrib counters" `Quick test_attrib_counters;
  ]
