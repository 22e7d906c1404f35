(* The measurement suite behind [trgplace perf].

   One deliberately small, deterministic set of units covers the
   pipeline's cost centres: benchmark preparation, trace loading, GBSC
   profiling, the three placement algorithms (GBSC under both cost
   engines — the ledger is how the incremental engine's payoff, and any
   regression of it, stays visible), the trace simulator direct-mapped
   and 4-way, miss attribution, the skylake hierarchy, and one pool
   round-trip, all on the pair-sparse [small]; plus GBSC under both
   engines on the pair-dense [vortex].  Each unit is
   run [reps] times; wall time and allocated words per repetition feed
   {!Trg_obs.Perf.robust}, and the deterministic [cost/*], [merge/*],
   [pool/*] and [sim/*] counters of the first repetition are captured
   into the record — they are machine-independent, so the CI gate can
   hold them exactly while wall time gets a noise band. *)

module Metrics = Trg_obs.Metrics
module Perf = Trg_obs.Perf
module Clock = Trg_util.Clock

(* The work-profile counters worth remembering per session.  [prof/*] is
   deliberately absent: profile histograms are wall-clock-shaped. *)
let counter_prefixes = [ "cost/"; "merge/"; "pool/"; "sim/" ]

let default_benches = [ "small" ]

(* --- the artificial-regression hook ------------------------------------ *)

(* [TRGPLACE_PERF_SLOW="<seconds>"] slows every unit;
   ["<substring>:<seconds>"] slows only units whose name contains the
   substring.  This exists so the regression gate's failure path is
   testable end to end — CI proves the gate trips by slowing a hot path
   on purpose — without shipping a slow flag in the CLI surface. *)
let slow_env = "TRGPLACE_PERF_SLOW"

let parse_slow spec =
  match String.index_opt spec ':' with
  | None -> Option.map (fun s -> ("", s)) (float_of_string_opt spec)
  | Some i ->
    let name = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    Option.map (fun s -> (name, s)) (float_of_string_opt rest)

let slow_spec () = Option.bind (Sys.getenv_opt slow_env) parse_slow

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  n = 0
  ||
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* --- the unit set ------------------------------------------------------ *)

type unit_ = { u_name : string; u_work : unit -> unit }

let with_engine kind f =
  let saved = Trg_place.Cost.engine () in
  Trg_place.Cost.set_engine kind;
  Fun.protect ~finally:(fun () -> Trg_place.Cost.set_engine saved) f

(* The training trace as a v3 file, written once before any timing and
   removed at exit, for the trace-load unit. *)
let saved_trace trace =
  let path = Filename.temp_file "trgplace-perf" ".trace" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  Trg_trace.Io.save_flat path trace;
  path

let unit_of name n f = { u_name = Printf.sprintf "%s/%s" name n; u_work = f }

(* GBSC placement of a prepared benchmark under each cost engine. *)
let gbsc_units name r =
  let program = Runner.program r in
  List.map
    (fun (n, kind) ->
      unit_of name n (fun () ->
          with_engine kind (fun () ->
              ignore (Trg_place.Gbsc.place program r.Runner.prof))))
    [ ("gbsc-incr", Trg_place.Cost.Incr); ("gbsc-full", Trg_place.Cost.Full) ]

(* The 8 KB 4-way cache of the Section 6 experiments. *)
let cache_4way = Trg_cache.Config.make ~size:8192 ~line_size:32 ~assoc:4

let bench_units ?policy name =
  let shape = Trg_synth.Bench.find name in
  let r = Runner.prepare ?policy shape in
  let program = Runner.program r in
  let layout = Runner.default_layout r in
  let train_file = saved_trace r.Runner.train in
  (* Tree-PLRU at L1, QLRU at L2 and L3. *)
  let hier =
    match Trg_cache.Cpu.find "skylake" with
    | Ok c -> c.Trg_cache.Cpu.hier
    | Error e -> invalid_arg e
  in
  let u = unit_of name in
  u "prepare" (fun () -> ignore (Runner.prepare ?policy shape))
  :: gbsc_units name r
  @ [
    u "ph" (fun () -> ignore (Trg_place.Ph.place ~wcg:r.Runner.wcg program));
    u "hkc" (fun () ->
        ignore
          (Trg_place.Hkc.place r.Runner.config program ~wcg:r.Runner.wcg
             ~popularity:r.Runner.prof.Trg_place.Gbsc.popularity));
    u "sim-test" (fun () -> ignore (Runner.test_miss_rate r layout));
    u "sim-4way" (fun () ->
        ignore (Runner.miss_rate_on r cache_4way layout r.Runner.test));
    u "attrib" (fun () ->
        ignore
          (Trg_cache.Attrib.simulate ~policy:r.Runner.policy program layout
             r.Runner.config.Trg_place.Gbsc.cache r.Runner.test));
    u "hierarchy" (fun () ->
        ignore (Trg_cache.Hierarchy.simulate program layout hier r.Runner.test));
    u "profile" (fun () ->
        ignore (Trg_place.Gbsc.profile r.Runner.config program r.Runner.train));
    u "trace-load" (fun () -> ignore (Trg_trace.Io.load train_file));
  ]

(* One pool round-trip: forks [jobs] workers, ships eight trivial units
   through the checksummed frames and absorbs the replies.  Its wall
   time tracks fork + IPC overhead; its [pool/*] counters are
   jobs-invariant by the pool's design, which the perf tests pin. *)
let pool_unit ~jobs =
  {
    u_name = "pool/roundtrip";
    u_work =
      (fun () ->
        let tasks =
          List.init 8 (fun i ->
              {
                Pool.key = Printf.sprintf "unit-%d" i;
                Pool.work =
                  (fun () -> Trg_util.Checksum.string (String.make 4096 'p'));
              })
        in
        let outcomes = Pool.run ~jobs tasks in
        List.iter
          (fun o ->
            match o.Pool.value with
            | Ok _ -> ()
            | Error f -> failwith (Pool.failure_to_string f))
          outcomes);
  }

(* The pair-dense benchmark, whose rows keep the incremental engine at or
   below the full one where it has the least to gain: only its GBSC
   placements are timed. *)
let dense_bench = "vortex"

let dense_units ?policy () =
  gbsc_units dense_bench (Runner.prepare ?policy (Trg_synth.Bench.find dense_bench))

let units ?(jobs = 2) ?(benches = default_benches) ?policy () =
  List.concat_map (bench_units ?policy) benches
  @ (if List.mem dense_bench benches then [] else dense_units ?policy ())
  @ [ pool_unit ~jobs ]

let unit_names ?jobs ?benches ?policy () =
  List.map (fun u -> u.u_name) (units ?jobs ?benches ?policy ())

(* --- measurement ------------------------------------------------------- *)

(* The spans' settled meter; [measure] reads it outside the timed
   window. *)
let allocated_words = Trg_obs.Span.allocated_words

(* The canonical string keeps its historical shape for LRU (the policy
   member is appended only when non-default), so every committed ledger's
   config_crc stays comparable to new records. *)
let config_crc ~benches ~reps ~jobs ~policy =
  let canon =
    Printf.sprintf "benches=%s;reps=%d;jobs=%d"
      (String.concat "," (List.sort compare benches))
      reps jobs
  in
  let canon =
    if policy = Trg_cache.Policy.Lru then canon
    else canon ^ ";policy=" ^ Trg_cache.Policy.to_string policy
  in
  Trg_util.Checksum.to_hex (Trg_util.Checksum.string canon)

let measure ?(reps = 5) ?(jobs = 2) ?(benches = default_benches)
    ?(policy = Trg_cache.Policy.Lru) ~rev ~time_s () =
  if reps < 1 then invalid_arg "Perfrun.measure: reps < 1";
  let slow = slow_spec () in
  let us = units ~jobs ~benches ~policy () in
  let n = List.length us in
  let wall = Array.make_matrix n reps 0. in
  let alloc = Array.make_matrix n reps 0. in
  (* Counters restart from zero so the record captures exactly one
     repetition's work profile, whatever ran in this process before. *)
  Metrics.clear ();
  let counters = ref [] in
  for rep = 0 to reps - 1 do
    List.iteri
      (fun i u ->
        let a0 = allocated_words () in
        let t0 = Clock.monotonic () in
        u.u_work ();
        (match slow with
        | Some (sub, seconds) when contains ~sub u.u_name ->
          Clock.sleep seconds
        | Some _ | None -> ());
        wall.(i).(rep) <- Float.max 0. (Clock.monotonic () -. t0);
        alloc.(i).(rep) <- Float.max 0. (allocated_words () -. a0))
      us;
    if rep = 0 then
      counters :=
        List.filter
          (fun (name, _) ->
            List.exists
              (fun p -> String.length name >= String.length p
                        && String.sub name 0 (String.length p) = p)
              counter_prefixes)
          (Metrics.counters ())
  done;
  let benches_stats =
    List.mapi
      (fun i u ->
        {
          Perf.b_name = u.u_name;
          wall_s = Perf.robust wall.(i);
          alloc_w = Perf.robust alloc.(i);
        })
      us
    |> List.sort (fun a b -> compare a.Perf.b_name b.Perf.b_name)
  in
  {
    Perf.rev;
    time_s;
    config_crc = config_crc ~benches ~reps ~jobs ~policy;
    reps;
    benches = benches_stats;
    counters = !counters;
  }
