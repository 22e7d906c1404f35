(* The replacement-policy differential wall.

   Every optimized policy in [Trg_cache.Policy.Probe] (packed arrays,
   heap-indexed trees, in-place age renormalisation) is proven
   bit-identical to its deliberately naive [Policy.Reference] model
   (explicit lists of tags, bits and ages) on random access sequences:
   not just equal miss counts, but the same hit/miss/eviction code on
   every single access.  Hand-computed golden eviction vectors pin the
   Tree-PLRU and QLRU semantics to paper definitions, the PLRU = LRU
   identity at associativity <= 2 is checked as a property, and the 3C
   classification is shown to sum to the total misses under every policy
   and associativity.  Hierarchy-level invariants (level n+1 sees exactly
   level n's misses; per-level 3C sums; the cycle model's arithmetic)
   complete the wall. *)

module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Config = Trg_cache.Config
module Policy = Trg_cache.Policy
module Sim = Trg_cache.Sim
module Attrib = Trg_cache.Attrib
module Hierarchy = Trg_cache.Hierarchy
module Cpu = Trg_cache.Cpu
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace

(* --- probe vs reference, access for access --------------------------- *)

let run_probe kind ~n_sets ~assoc seq =
  let p = Policy.Probe.create kind ~n_sets ~assoc in
  List.map (Policy.Probe.access p) seq

let run_reference kind ~n_sets ~assoc seq =
  let r = Policy.Reference.create kind ~n_sets ~assoc in
  List.map (Policy.Reference.access r) seq

let show_workload (n_sets, assoc, seq) =
  Printf.sprintf "n_sets=%d assoc=%d seq=[%s]" n_sets assoc
    (String.concat ";" (List.map string_of_int seq))

let workload ~assocs =
  QCheck.(
    make
      ~print:show_workload
      Gen.(
        map3
          (fun n_sets assoc seq -> (n_sets, assoc, seq))
          (oneofl [ 1; 2; 4 ])
          (oneofl assocs)
          (list_size (int_range 1 160) (int_range 0 40))))

let prop_policy_wall kind =
  let assocs =
    (* Tree-PLRU only exists at power-of-two ways; every other policy is
       also exercised at odd associativities. *)
    match kind with
    | Policy.Plru -> [ 1; 2; 4; 8 ]
    | _ -> [ 1; 2; 3; 4; 5; 8 ]
  in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "policy wall: %s probe matches brute-force reference"
         (Policy.to_string kind))
    ~count:(Soak.scaled 200) (workload ~assocs)
    (fun (n_sets, assoc, seq) ->
      run_probe kind ~n_sets ~assoc seq = run_reference kind ~n_sets ~assoc seq)

let prop_plru_equals_lru_low_assoc =
  QCheck.Test.make
    ~name:"policy wall: Tree-PLRU is exactly LRU at associativity <= 2"
    ~count:(Soak.scaled 200)
    (workload ~assocs:[ 1; 2 ])
    (fun (n_sets, assoc, seq) ->
      run_probe Policy.Plru ~n_sets ~assoc seq
      = run_probe Policy.Lru ~n_sets ~assoc seq)

(* --- golden eviction vectors ------------------------------------------ *)

(* One 4-way set, worked by hand.  The access code is [-2] on a hit, [-1]
   when an invalid way is filled, and the evicted tag otherwise. *)
let check_golden kind seq expect =
  Alcotest.(check (list int))
    (Policy.to_string kind ^ " probe")
    expect
    (run_probe kind ~n_sets:1 ~assoc:4 seq);
  Alcotest.(check (list int))
    (Policy.to_string kind ^ " reference")
    expect
    (run_reference kind ~n_sets:1 ~assoc:4 seq)

let test_golden_plru () =
  (* Fills of 0..3 leave all three direction bits pointing left (each
     touch points its path away from the touched way, and way 3 is the
     last filled), so the fifth access walks left-left to way 0.  The
     touch of way 0 then flips the root right, sending the next victim
     walk to way 2; the hit on 1 flips it right again (to way 3). *)
  check_golden Policy.Plru
    [ 0; 1; 2; 3; 4; 0; 1; 5; 4 ]
    [ -1; -1; -1; -1; 0; 2; -2; 3; -2 ]

let test_golden_qlru_h00 () =
  (* Lines insert at age 1; the hit on 0 drops it to age 0, so the first
     eviction renormalises ages by +2 and takes the leftmost age-3 way —
     way 1.  A second eviction finds way 3 already at age 3 (no bump). *)
  check_golden Policy.Qlru_h00
    [ 0; 1; 2; 3; 0; 4; 2; 5; 0; 6 ]
    [ -1; -1; -1; -1; -2; 1; -2; 3; -2; 4 ]

let test_golden_qlru_h11 () =
  (* Same prefix, but h11 demotes a hit at age 3 only to age 1, so after
     hits on 2 and 3 the set holds ages [2;1;1;1] and the next
     renormalisation (+1) evicts way 0 — where h00 would have kept 0
     (age 0) alive and evicted tag 4 instead. *)
  check_golden Policy.Qlru_h11
    [ 0; 1; 2; 3; 0; 4; 2; 3; 5 ]
    [ -1; -1; -1; -1; -2; 1; -2; -2; 0 ]

let test_golden_fifo_mru () =
  (* FIFO ignores the hits on 0 entirely: the first fill is still the
     first victim.  MRU evicts the freshest line instead — the hit on 0
     makes 0 the victim of the very next miss. *)
  check_golden Policy.Fifo
    [ 0; 1; 2; 3; 0; 4; 0 ]
    [ -1; -1; -1; -1; -2; 0; 1 ];
  check_golden Policy.Mru
    [ 0; 1; 2; 3; 0; 4; 1 ]
    [ -1; -1; -1; -1; -2; 0; -2 ]

let test_policy_names () =
  List.iter
    (fun k ->
      match Policy.of_string (Policy.to_string k) with
      | Ok k' -> Alcotest.(check bool) "roundtrip" true (k = k')
      | Error e -> Alcotest.fail e)
    Policy.all;
  (match Policy.of_string "random" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus policy accepted");
  Alcotest.check_raises "plru rejects 3 ways"
    (Invalid_argument "Policy: Tree-PLRU requires power-of-two associativity")
    (fun () -> Policy.validate Policy.Plru ~assoc:3)

(* --- 3C classification under every policy ----------------------------- *)

let sizes = [| 64; 96; 32; 128 |]

let program = Program.of_sizes sizes

let layout = Layout.default program

let trace_of_events evs =
  Trace.of_list
    (List.map
       (fun (proc, off, len) ->
         let size = sizes.(proc) in
         let len = 1 + (len mod 16) in
         let off = off mod (size - len + 1) in
         Event.make ~kind:Event.Enter ~proc ~offset:off ~len)
       evs)

let gen_trace =
  QCheck.(
    make
      ~print:(fun evs ->
        String.concat ";"
          (List.map (fun (p, o, l) -> Printf.sprintf "(%d,%d,%d)" p o l) evs))
      Gen.(
        list_size (int_range 1 120)
          (map3
             (fun p o l -> (p, o, l))
             (int_range 0 3) (int_range 0 127) (int_range 0 15))))

let prop_attrib_3c_sums_every_policy =
  QCheck.Test.make
    ~name:"3C classes sum to total misses under every policy and assoc"
    ~count:(Soak.scaled 60) gen_trace
    (fun evs ->
      let trace = trace_of_events evs in
      List.for_all
        (fun policy ->
          List.for_all
            (fun assoc ->
              let config =
                Config.make ~size:(16 * assoc * 4) ~line_size:16 ~assoc
              in
              let a = Attrib.simulate ~policy program layout config trace in
              let sim = Sim.simulate ~policy program layout config trace in
              a.Attrib.compulsory + a.Attrib.capacity + a.Attrib.conflict
              = a.Attrib.result.Sim.misses
              && a.Attrib.result = sim)
            [ 1; 2; 4 ])
        Policy.all)

let prop_sim_flat_agrees_every_policy =
  QCheck.Test.make
    ~name:"Sim.simulate and Sim.simulate_flat agree under every policy"
    ~count:(Soak.scaled 40) gen_trace
    (fun evs ->
      let trace = trace_of_events evs in
      let flat = Trace.Flat.of_trace trace in
      List.for_all
        (fun policy ->
          let config = Config.make ~size:128 ~line_size:16 ~assoc:4 in
          Sim.simulate ~policy program layout config trace
          = Sim.simulate_flat ~policy program layout config flat)
        Policy.all)

(* --- allocation guard -------------------------------------------------- *)

let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* The probe loops read packed words and allocate nothing per event: a
   200k-event simulation allocates fewer than 10k words — its tag
   arrays, address table and result — under every policy, direct-mapped
   and 4-way.  An [Event.t] per event was about 5 words an event. *)
let test_sim_allocation_free () =
  let n = 200_000 and n_procs = 64 in
  let program = Program.of_sizes (Array.make n_procs 256) in
  let layout = Layout.default program in
  let b = Trace.Builder.create ~capacity:n () in
  for i = 0 to n - 1 do
    Trace.Builder.add b
      (Event.make ~kind:Event.Run ~proc:(i * 7919 mod n_procs) ~offset:(32 * (i mod 6))
         ~len:(8 + (i mod 48)))
  done;
  let trace = Trace.Builder.build b in
  List.iter
    (fun (policy, assoc) ->
      let config = Config.make ~size:8192 ~line_size:32 ~assoc in
      let before = allocated_words () in
      let r = Sim.simulate ~policy program layout config trace in
      let words = allocated_words () -. before in
      Alcotest.(check int) "events" n r.Sim.events;
      if words >= 10_000. then
        Alcotest.failf "Sim.simulate %s %d-way allocated %.0f words over %d events"
          (Policy.to_string policy) assoc words n)
    (List.concat_map (fun p -> [ (p, 1); (p, 4) ]) Policy.all)

(* --- hierarchy invariants --------------------------------------------- *)

let two_level =
  Hierarchy.make
    ~levels:
      [
        {
          Hierarchy.config = Config.make ~size:64 ~line_size:16 ~assoc:2;
          policy = Policy.Plru;
          hit_cycles = 1;
        };
        {
          Hierarchy.config = Config.make ~size:256 ~line_size:32 ~assoc:4;
          policy = Policy.Qlru_h11;
          hit_cycles = 10;
        };
      ]
    ~memory_cycles:100

let prop_hierarchy_invariants =
  QCheck.Test.make ~name:"hierarchy: filtering, per-level 3C sums, cycle model"
    ~count:(Soak.scaled 60) gen_trace
    (fun evs ->
      let trace = trace_of_events evs in
      let r = Hierarchy.simulate program layout two_level trace in
      let l1 = r.Hierarchy.levels.(0) and l2 = r.Hierarchy.levels.(1) in
      (* Level 2 sees exactly level 1's misses. *)
      l2.Hierarchy.accesses = l1.Hierarchy.misses
      && l2.Hierarchy.misses <= l2.Hierarchy.accesses
      (* 3C sums per level. *)
      && l1.Hierarchy.compulsory + l1.Hierarchy.capacity + l1.Hierarchy.conflict
         = l1.Hierarchy.misses
      && l2.Hierarchy.compulsory + l2.Hierarchy.capacity + l2.Hierarchy.conflict
         = l2.Hierarchy.misses
      (* The cycle model is plain arithmetic over the counts. *)
      && r.Hierarchy.cycles
         = (l1.Hierarchy.accesses * 1)
           + (l2.Hierarchy.accesses * 10)
           + (l2.Hierarchy.misses * 100)
      (* L1 counts match the single-level simulator under the same policy. *)
      &&
      let solo =
        Sim.simulate ~policy:Policy.Plru program layout
          (Config.make ~size:64 ~line_size:16 ~assoc:2)
          trace
      in
      l1.Hierarchy.accesses = solo.Sim.accesses
      && l1.Hierarchy.misses = solo.Sim.misses)

let test_hierarchy_validation () =
  Alcotest.check_raises "empty hierarchy"
    (Invalid_argument "Hierarchy.make: at least one level required")
    (fun () -> ignore (Hierarchy.make ~levels:[] ~memory_cycles:100));
  let l size line assoc =
    {
      Hierarchy.config = Config.make ~size ~line_size:line ~assoc;
      policy = Policy.Lru;
      hit_cycles = 1;
    }
  in
  Alcotest.check_raises "line sizes must nest"
    (Invalid_argument
       "Hierarchy.make: L2 line size (24) must be a multiple of L1's (16)")
    (fun () ->
      ignore (Hierarchy.make ~levels:[ l 64 16 2; l 96 24 2 ] ~memory_cycles:50))

let test_cpu_presets () =
  Alcotest.(check (list string))
    "preset names"
    [ "alpha-21064"; "alpha-21164"; "nehalem"; "skylake" ]
    Cpu.names;
  (match Cpu.find "nonesuch" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus CPU accepted");
  let trace =
    trace_of_events (List.init 200 (fun i -> (i mod 4, 7 * i, i mod 11)))
  in
  List.iter
    (fun cpu ->
      let r = Hierarchy.simulate program layout cpu.Cpu.hier trace in
      let levels = r.Hierarchy.levels in
      Alcotest.(check bool)
        (cpu.Cpu.name ^ " filters downward")
        true
        (Array.for_all
           (fun (lr : Hierarchy.level_result) ->
             lr.Hierarchy.compulsory + lr.Hierarchy.capacity
             + lr.Hierarchy.conflict
             = lr.Hierarchy.misses)
           levels
        && fst
             (Array.fold_left
                (fun (ok, prev_misses) (lr : Hierarchy.level_result) ->
                  match prev_misses with
                  | None -> (ok, Some lr.Hierarchy.misses)
                  | Some m ->
                    (ok && lr.Hierarchy.accesses = m, Some lr.Hierarchy.misses))
                (true, None) levels));
      Alcotest.(check bool)
        (cpu.Cpu.name ^ " positive amat")
        true
        (r.Hierarchy.amat >= 1.0))
    Cpu.all

let suite =
  [
    QCheck_alcotest.to_alcotest (prop_policy_wall Policy.Lru);
    QCheck_alcotest.to_alcotest (prop_policy_wall Policy.Fifo);
    QCheck_alcotest.to_alcotest (prop_policy_wall Policy.Mru);
    QCheck_alcotest.to_alcotest (prop_policy_wall Policy.Plru);
    QCheck_alcotest.to_alcotest (prop_policy_wall Policy.Qlru_h00);
    QCheck_alcotest.to_alcotest (prop_policy_wall Policy.Qlru_h11);
    QCheck_alcotest.to_alcotest prop_plru_equals_lru_low_assoc;
    Alcotest.test_case "golden Tree-PLRU evictions" `Quick test_golden_plru;
    Alcotest.test_case "golden QLRU-h00 evictions" `Quick test_golden_qlru_h00;
    Alcotest.test_case "golden QLRU-h11 evictions" `Quick test_golden_qlru_h11;
    Alcotest.test_case "golden FIFO and MRU evictions" `Quick test_golden_fifo_mru;
    Alcotest.test_case "policy names and validation" `Quick test_policy_names;
    QCheck_alcotest.to_alcotest prop_attrib_3c_sums_every_policy;
    QCheck_alcotest.to_alcotest prop_sim_flat_agrees_every_policy;
    Alcotest.test_case "simulate allocates nothing per event" `Quick test_sim_allocation_free;
    QCheck_alcotest.to_alcotest prop_hierarchy_invariants;
    Alcotest.test_case "hierarchy validation" `Quick test_hierarchy_validation;
    Alcotest.test_case "CPU presets" `Quick test_cpu_presets;
  ]
