(* Property-based tests over randomized programs and traces: structural
   invariants every placement algorithm must satisfy (layouts are
   overlap-free and cover every procedure), set preservation of the
   line-aligning repack, and miss-count invariance of traces round-tripped
   through the checksummed I/O layer. *)

module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Config = Trg_cache.Config
module Sim = Trg_cache.Sim
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace
module Io = Trg_trace.Io
module Tstats = Trg_trace.Tstats
module Wcg = Trg_profile.Wcg
module Popularity = Trg_profile.Popularity
module Gbsc = Trg_place.Gbsc
module Prng = Trg_util.Prng

(* --- randomized workloads --------------------------------------------- *)

(* A program of [n] procedures with line-friendly sizes, and a trace
   walking them with locality (a PRNG-driven Markov-ish walk: mostly
   nearby procedures, occasional jumps), so graphs and popularity have
   real structure. *)
let gen_workload =
  QCheck.Gen.(
    pair (int_range 2 14) (pair (int_range 1 400) int)
    |> map (fun (n_procs, (len, seed)) ->
           let rng = Prng.create seed in
           let sizes =
             Array.init n_procs (fun _ -> 16 + (16 * Prng.int rng 8))
           in
           let program = Program.of_sizes sizes in
           let cur = ref (Prng.int rng n_procs) in
           let events =
             List.init len (fun _ ->
                 (if Prng.int rng 4 = 0 then cur := Prng.int rng n_procs
                  else cur := (!cur + 1 + Prng.int rng 2) mod n_procs);
                 Event.make ~kind:Event.Enter ~proc:!cur ~offset:0 ~len:16)
           in
           (program, Trace.of_list events)))

let arb_workload =
  QCheck.make gen_workload ~print:(fun (program, trace) ->
      Printf.sprintf "%d procs, %d events" (Program.n_procs program)
        (Trace.length trace))

let small_cache = Config.make ~size:256 ~line_size:32 ~assoc:1

let config = Gbsc.default_config ~cache:small_cache ()

(* Every placement algorithm under test, from the same profile data. *)
let layouts_of (program, trace) =
  let prof = Gbsc.profile config program trace in
  let wcg = Wcg.build trace in
  let popularity = prof.Gbsc.popularity in
  [
    ("GBSC", Gbsc.place program prof);
    ("PH", Trg_place.Ph.place ~wcg program);
    ("HKC", Trg_place.Hkc.place config program ~wcg ~popularity);
    ("Torrellas", Trg_place.Torrellas.place config program ~popularity);
    ("Hwu-Chang", Trg_place.Hwu_chang.place ~wcg program);
  ]

(* A layout is valid iff it assigns every procedure an address and no two
   procedures' byte ranges overlap — i.e. it is a permutation with gaps,
   never a superposition. *)
let layout_valid program layout =
  let n = Program.n_procs program in
  Array.length (Layout.addresses layout) = n
  && Array.for_all (fun a -> a >= 0) (Layout.addresses layout)
  &&
  let by_addr =
    List.sort compare
      (List.init n (fun p -> (Layout.address layout p, Program.size program p)))
  in
  let rec no_overlap = function
    | (a1, s1) :: ((a2, _) :: _ as rest) ->
      a1 + s1 <= a2 && no_overlap rest
    | _ -> true
  in
  no_overlap by_addr

let prop_placements_are_permutations =
  QCheck.Test.make
    ~name:"every placement algorithm yields a complete overlap-free layout"
    ~count:60 arb_workload
    (fun workload ->
      let program, _ = workload in
      List.for_all
        (fun (name, layout) ->
          if layout_valid program layout then true
          else QCheck.Test.fail_reportf "%s produced an invalid layout" name)
        (layouts_of workload))

(* --- line_align set preservation -------------------------------------- *)

let prop_line_align_preserves_sets =
  QCheck.Test.make
    ~name:"line_align preserves every procedure's set index and validity"
    ~count:80
    QCheck.(pair arb_workload (int_range 1 8))
    (fun ((program, _), n_sets_exp) ->
      let n_sets = 1 lsl (n_sets_exp mod 5) in
      let line_size = 32 in
      let rng = Prng.create (Program.n_procs program + n_sets) in
      let layout = Layout.random rng program in
      let aligned = Layout.line_align ~line_size ~n_sets program layout in
      layout_valid program aligned
      && List.for_all
           (fun p ->
             let set l = Layout.address l p / line_size mod n_sets in
             set layout = set aligned
             && Layout.address aligned p mod line_size = 0)
           (List.init (Program.n_procs program) Fun.id))

(* --- trace I/O round-trip invariance ----------------------------------- *)

let with_temp ext f =
  let path = Filename.temp_file "trg_property" ext in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Simulated miss counts are a function of the trace alone, so a trace
   round-tripped through the v2 text or binary format must simulate
   identically — checksummed I/O is transparent to every consumer. *)
let prop_simulation_invariant_under_io =
  QCheck.Test.make
    ~name:"miss counts invariant under trace save/load round-trip" ~count:40
    arb_workload
    (fun (program, trace) ->
      let layout = Layout.default program in
      let misses t = (Sim.simulate program layout small_cache t).Sim.misses in
      let reference = misses trace in
      let via_text =
        with_temp ".trace" (fun path ->
            Io.save path trace;
            misses (Io.load path))
      in
      let via_binary =
        with_temp ".btrace" (fun path ->
            Io.save_binary path trace;
            misses (Io.load path))
      in
      reference = via_text && reference = via_binary)

(* --- the packed Bigarray trace representation --------------------------- *)

(* Arbitrary events across the full packed ranges, including the field
   extremes ([proc < 2^14], [offset < 2^24], [0 < len <= 2^22]) whose
   packed forms set the top bits of the native-int words. *)
let gen_event =
  QCheck.Gen.(
    let boundary_or_uniform hi =
      oneof [ int_range 0 hi; oneofl [ 0; 1; hi - 1; hi ] ]
    in
    map
      (fun (k, (proc, (offset, len))) ->
        let kind =
          match k with 0 -> Event.Enter | 1 -> Event.Resume | _ -> Event.Run
        in
        Event.make ~kind ~proc ~offset ~len)
      (pair (int_range 0 2)
         (pair
            (boundary_or_uniform ((1 lsl 14) - 1))
            (pair
               (boundary_or_uniform ((1 lsl 24) - 1))
               (map (fun l -> 1 + l) (boundary_or_uniform ((1 lsl 22) - 1)))))))

let arb_events =
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 300) gen_event)
    ~print:(fun evs -> Printf.sprintf "%d events" (List.length evs))

let prop_flat_roundtrip =
  QCheck.Test.make ~name:"Flat.of_trace round-trips every event exactly"
    ~count:(Soak.scaled 200) arb_events
    (fun evs ->
      let trace = Trace.of_list evs in
      let flat = Trace.Flat.of_trace trace in
      Trace.Flat.length flat = Trace.length trace
      && Trace.to_list (Trace.Flat.to_trace flat) = evs
      && List.for_all
           (fun i ->
             Trace.Flat.get flat i = Trace.get trace i
             && Trace.Flat.get_packed flat i = Event.pack (Trace.get trace i))
           (List.init (Trace.length trace) Fun.id))

(* [Trace.Flat] and [Sim.simulate_flat] are aliases of the one
   representation and simulator now, so this holds by construction; it
   stays as a guard on the aliases the benchmark harness calls. *)
let prop_sim_flat_invariant =
  QCheck.Test.make
    ~name:"miss counts invariant under flat-backed simulation"
    ~count:(Soak.scaled 60)
    QCheck.(pair arb_workload (int_range 1 2))
    (fun ((program, trace), assoc) ->
      let cache = Config.make ~size:(256 * assoc) ~line_size:32 ~assoc in
      let layout = Layout.default program in
      let reference = Sim.simulate program layout cache trace in
      let flat = Sim.simulate_flat program layout cache (Trace.Flat.of_trace trace) in
      reference.Sim.misses = flat.Sim.misses
      && reference.Sim.accesses = flat.Sim.accesses)

(* Io format v3: a trace saved flat must load identically through both
   [Io.load] and its [Io.load_flat] alias, and v2 files must load
   unchanged — simulated miss counts are the observable. *)
let prop_v3_io_roundtrip =
  QCheck.Test.make
    ~name:"miss counts invariant under Io v3 save/load round-trips"
    ~count:(Soak.scaled 40) arb_workload
    (fun (program, trace) ->
      let layout = Layout.default program in
      let misses t = (Sim.simulate program layout small_cache t).Sim.misses in
      let reference = misses trace in
      let via_v3 =
        with_temp ".ftrace" (fun path ->
            Io.save_flat path (Trace.Flat.of_trace trace);
            ( misses (Io.load path),
              misses (Trace.Flat.to_trace (Io.load_flat path)) ))
      in
      let v2_as_flat =
        with_temp ".btrace" (fun path ->
            Io.save_binary path trace;
            misses (Trace.Flat.to_trace (Io.load_flat path)))
      in
      via_v3 = (reference, reference) && v2_as_flat = reference)

(* The builder hands a buffer filled to exactly its capacity over as the
   built trace, without copying, so the next [add] must grow into a fresh
   buffer rather than write through a trace already handed out.  A
   random capacity puts the full points at random split points; building
   after every add crosses each of them and exercises the copying path
   in between.  Every earlier trace must still hold its own prefix, word
   for word.  The other constructors must agree with [Event.pack] too. *)
let packs_agree trace evs =
  Trace.length trace = List.length evs
  && List.for_all Fun.id (List.mapi (fun i e -> Trace.packed trace i = Event.pack e) evs)

let prop_builder_handover =
  QCheck.Test.make ~name:"builder hand-over leaves every built trace unchanged"
    ~count:(Soak.scaled 200)
    QCheck.(triple arb_events (int_range 1 40) small_nat)
    (fun (evs, capacity, cut) ->
      let events = Array.of_list evs in
      let n = Array.length events in
      let slice pos len = Array.to_list (Array.sub events pos len) in
      let b = Trace.Builder.create ~capacity () in
      let built =
        List.mapi
          (fun i e ->
            Trace.Builder.add b e;
            (i + 1, Trace.Builder.build b))
          evs
      in
      let whole = Trace.of_list evs in
      let pos = cut mod (n + 1) in
      let head = Trace.sub whole ~pos:0 ~len:pos
      and tail = Trace.sub whole ~pos ~len:(n - pos) in
      List.for_all (fun (k, t) -> packs_agree t (slice 0 k)) built
      && packs_agree whole evs
      && packs_agree (Trace.of_events events) evs
      && packs_agree tail (slice pos (n - pos))
      && packs_agree (Trace.concat [ head; tail ]) evs)

(* [Event.check_packed] is the decoder's only check on a word read from
   disk, so it must reject exactly the words [Event.make (Event.unpack w)]
   rejects, with the same message.  Words are built field by field so
   the invalid kind tag 3 and the length edges come up often. *)
let prop_check_packed_matches_make =
  let gen =
    QCheck.Gen.(
      map
        (fun (kind, (proc, (offset, len))) ->
          len lor (offset lsl 23) lor (proc lsl 47) lor (kind lsl 61))
        (pair (int_range 0 3)
           (pair
              (int_range 0 ((1 lsl 14) - 1))
              (pair
                 (int_range 0 ((1 lsl 24) - 1))
                 (oneof
                    [
                      int_range 0 0x7FFFFF;
                      oneofl [ 0; 1; 1 lsl 22; (1 lsl 22) + 1; 0x7FFFFF ];
                    ])))))
  in
  let reason f = match f () with () -> None | exception Invalid_argument m -> Some m in
  QCheck.Test.make ~name:"Event.check_packed rejects exactly what make (unpack w) rejects"
    ~count:(Soak.scaled 500)
    (QCheck.make gen ~print:(Printf.sprintf "%#x"))
    (fun w ->
      reason (fun () -> Event.check_packed w)
      = reason (fun () ->
            let e = Event.unpack w in
            ignore
              (Event.make ~kind:e.Event.kind ~proc:e.Event.proc ~offset:e.Event.offset
                 ~len:e.Event.len
                : Event.t)))

(* --- deterministic simulation of the evaluation pool ------------------- *)

module Pool = Trg_eval.Pool
module Psim = Trg_eval.Pool_sim
module Metrics = Trg_obs.Metrics

let pool_tasks units =
  List.init units (fun i ->
      {
        Pool.key = Printf.sprintf "u%d" i;
        work =
          (fun () ->
            Metrics.incr (Metrics.counter "property/sim_units");
            Printf.printf "u%d\n" i;
            (i * 37) land 0xFFFF);
      })

let outcome_repr (o : int Pool.outcome) =
  ( o.Pool.key,
    (match o.Pool.value with
    | Ok v -> "ok " ^ string_of_int v
    | Error f -> "error " ^ Pool.failure_to_string f),
    o.Pool.output )

(* The simulation tester's foundation: a run is a pure function of
   (seed, schedule, tasks, options).  Two identical runs must agree on
   every unit outcome, every captured output, and every counter delta —
   including the absorbed per-unit metrics and the supervisor's
   pool/respawns — or a failing seed could not be replayed. *)
let prop_sim_deterministic =
  QCheck.Test.make ~name:"pool simulation is a pure function of its seed" ~count:60
    QCheck.(triple (int_range 0 100_000) (int_range 1 20) (int_range 1 4))
    (fun (seed, units, jobs) ->
      let schedule = Psim.random_schedule ~seed ~units in
      let go () =
        Psim.run ~jobs ~timeout:2.0 ~retries:2 ~schedule ~seed (pool_tasks units)
      in
      let before = Metrics.snapshot () in
      let r1 = go () in
      let mid = Metrics.snapshot () in
      let r2 = go () in
      let after = Metrics.snapshot () in
      let d1 = Metrics.delta ~before ~after:mid
      and d2 = Metrics.delta ~before:mid ~after in
      if List.map outcome_repr r1 <> List.map outcome_repr r2 then
        QCheck.Test.fail_reportf "outcomes differ across identical runs (seed %d)"
          seed
      else if d1.Metrics.snap_counters <> d2.Metrics.snap_counters then
        QCheck.Test.fail_reportf "counter deltas differ across identical runs (seed %d)"
          seed
      else List.length r1 = units)

(* With no faults scheduled the simulator is just another pool backend,
   and must be observationally identical to the real forked one. *)
let prop_sim_empty_schedule_matches_real =
  QCheck.Test.make ~name:"empty-schedule simulation matches the forked backend"
    ~count:12
    QCheck.(triple (int_range 0 100_000) (int_range 1 8) (int_range 1 3))
    (fun (seed, units, jobs) ->
      let real = Pool.run ~jobs (pool_tasks units) in
      let sim = Psim.run ~jobs ~seed (pool_tasks units) in
      List.map outcome_repr real = List.map outcome_repr sim)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_placements_are_permutations;
    QCheck_alcotest.to_alcotest prop_line_align_preserves_sets;
    QCheck_alcotest.to_alcotest prop_simulation_invariant_under_io;
    QCheck_alcotest.to_alcotest prop_flat_roundtrip;
    QCheck_alcotest.to_alcotest prop_sim_flat_invariant;
    QCheck_alcotest.to_alcotest prop_v3_io_roundtrip;
    QCheck_alcotest.to_alcotest prop_builder_handover;
    QCheck_alcotest.to_alcotest prop_check_packed_matches_make;
    QCheck_alcotest.to_alcotest prop_sim_deterministic;
    QCheck_alcotest.to_alcotest prop_sim_empty_schedule_matches_real;
  ]
