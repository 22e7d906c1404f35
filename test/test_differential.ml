(* Differential tests: each optimised production component is checked
   against a transparently naive reference implementation on randomized
   inputs.  The references are deliberately simple (lists, rescans) so
   their correctness is obvious by inspection. *)

module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Config = Trg_cache.Config
module Sim = Trg_cache.Sim
module Reuse = Trg_cache.Reuse
module Event = Trg_trace.Event
module Trace = Trg_trace.Trace
module Graph = Trg_profile.Graph
module Qset = Trg_profile.Qset
module Merge_driver = Trg_place.Merge_driver
module Prng = Trg_util.Prng
module Cost = Trg_place.Cost
module Node = Trg_place.Node
module Gbsc = Trg_place.Gbsc
module Hkc = Trg_place.Hkc
module Gbsc_sa = Trg_place.Gbsc_sa
module Wcg = Trg_profile.Wcg
module Trg = Trg_profile.Trg
module Incr = Trg_cache.Incr
module Metrics = Trg_obs.Metrics

(* Soak profile hook: [dune runtest --profile soak] multiplies QCheck
   iteration counts via TRGPLACE_QCHECK_FACTOR (see the root dune file). *)
let scaled n =
  match Sys.getenv_opt "TRGPLACE_QCHECK_FACTOR" with
  | Some f -> ( try n * int_of_string (String.trim f) with Failure _ -> n)
  | None -> n

let with_engine k f =
  let prev = Cost.engine () in
  Cost.set_engine k;
  Fun.protect ~finally:(fun () -> Cost.set_engine prev) f

let ev proc = Event.make ~kind:Event.Enter ~proc ~offset:0 ~len:32

(* --- Qset vs a list-based reference ------------------------------------- *)

(* Reference: Q as a plain list, most recent last; same semantics as the
   paper's prose. *)
module Ref_q = struct
  type t = { capacity : int; size_of : int -> int; mutable q : int list }

  let create capacity size_of = { capacity; size_of; q = [] }

  let total t = List.fold_left (fun acc p -> acc + t.size_of p) 0 t.q

  let reference t p =
    if List.mem p t.q then begin
      (* Everything after p's (unique) occurrence. *)
      let rec after = function
        | [] -> []
        | x :: rest -> if x = p then rest else after rest
      in
      let between = after t.q in
      t.q <- List.filter (fun x -> x <> p) t.q @ [ p ];
      (true, between)
    end
    else begin
      t.q <- t.q @ [ p ];
      let rec evict () =
        match t.q with
        | oldest :: rest when List.length t.q > 1 && total t - t.size_of oldest >= t.capacity ->
          t.q <- rest;
          evict ()
        | _ -> ()
      in
      evict ();
      (false, [])
    end
end

(* Id streams over a random universe of ids below 5001: sparse enough to
   grow Q's id-indexed arrays, dense enough to re-reference. *)
let gen_id_stream ~universe ~max_len =
  QCheck.Gen.(
    pair (array_size (int_range 1 universe) (int_range 0 5000)) (int_range 0 max_len)
    >>= fun (universe, n) ->
    list_repeat n (map (fun i -> universe.(i)) (int_bound (Array.length universe - 1))))

(* Q statistics of a reference run, from the population after each step. *)
let ref_stats populations =
  let steps = List.length populations in
  {
    Qset.avg_entries =
      (if steps = 0 then 0.
       else float_of_int (List.fold_left ( + ) 0 populations) /. float_of_int steps);
    max_entries = List.fold_left max 0 populations;
    steps;
  }

let prop_qset_matches_reference =
  QCheck.Test.make ~name:"Qset matches list reference on random streams" ~count:200
    (QCheck.make (gen_id_stream ~universe:40 ~max_len:200) ~print:QCheck.Print.(list int))
    (fun refs ->
      let size_of p = 16 + (8 * (p mod 5)) in
      let q = Qset.create ~capacity_bytes:200 ~size_of in
      let r = Ref_q.create 200 size_of in
      let populations = ref [] in
      List.for_all
        (fun p ->
          let between = ref [] in
          let prior = Qset.reference q p ~between:(fun x -> between := x :: !between) in
          let prior', between' = Ref_q.reference r p in
          populations := List.length r.Ref_q.q :: !populations;
          prior = prior'
          && List.rev !between = between'
          && Qset.members q = r.Ref_q.q
          && Qset.total_bytes q = Ref_q.total r)
        refs
      && Qset.stats q = ref_stats (List.rev !populations))

(* --- Trg.build_stream vs a list Q with one add_edge per increment ------- *)

(* The reference builder: [Ref_q] for Q and [Graph.add_edge g p q 1.] on
   every edge increment, into a graph with [build_stream]'s hint.  The
   production builder counts increments and builds the graph once, so its
   graph must match this one down to adjacency-list and hash-table order.
   Up to 100 distinct ids give up to 4950 edges, past the count table's
   first growth. *)
let reference_trg ~capacity ~size_of ids =
  let g = Graph.create ~hint:1024 () in
  let q = Ref_q.create capacity size_of in
  let last = ref (-1) and populations = ref [] in
  List.iter
    (fun p ->
      if p <> !last then begin
        last := p;
        let _, between = Ref_q.reference q p in
        List.iter (fun x -> Graph.add_edge g p x 1.) between;
        populations := List.length q.Ref_q.q :: !populations
      end)
    ids;
  (g, ref_stats (List.rev !populations))

(* Everything a consumer can observe of a graph, including the orders the
   interface leaves unspecified. *)
let graph_view g =
  let unordered = ref [] in
  Graph.iter_edges_unordered (fun u v w -> unordered := (u, v, w) :: !unordered) g;
  ( Graph.edges g,
    Graph.nodes g,
    List.map (fun u -> (u, Graph.neighbors g u)) (Graph.nodes g),
    List.rev !unordered )

let prop_trg_stream_matches_reference =
  QCheck.Test.make ~name:"Trg.build_stream matches per-increment reference"
    ~count:(scaled 200)
    (QCheck.make
       QCheck.Gen.(
         triple (gen_id_stream ~universe:100 ~max_len:800) (int_range 32 4096)
           (int_range 1 255))
       ~print:(fun (ids, capacity, salt) ->
         Printf.sprintf "capacity %d, salt %d, ids %s" capacity salt
           (QCheck.Print.(list int) ids)))
    (fun (ids, capacity, salt) ->
      let size_of p = 1 + ((p * salt) mod 97) in
      let built =
        Trg.build_stream ~capacity_bytes:capacity ~size_of (fun emit -> List.iter emit ids)
      in
      let graph, qstats = reference_trg ~capacity ~size_of ids in
      graph_view built.Trg.graph = graph_view graph && built.Trg.qstats = qstats)

(* --- Merge driver vs a rescan-everything reference ----------------------- *)

(* Reference greedy merge: keep explicit groups; at each step scan all
   cross-group pair weights (summing original edges) and merge the pair
   with the maximum weight; ties broken by smallest representative pair.
   Returns the multiset of final groups (sets of original nodes). *)
let reference_merge edges =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (u, v, _) ->
      if not (Hashtbl.mem groups u) then Hashtbl.add groups u [ u ];
      if not (Hashtbl.mem groups v) then Hashtbl.add groups v [ v ])
    edges;
  let weight_between a b =
    List.fold_left
      (fun acc (u, v, w) ->
        if (List.mem u a && List.mem v b) || (List.mem v a && List.mem u b) then
          acc +. w
        else acc)
      0. edges
  in
  let rec loop () =
    let reprs = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups []) in
    let best = ref None in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a < b then begin
              let w = weight_between (Hashtbl.find groups a) (Hashtbl.find groups b) in
              if w > 0. then
                match !best with
                | Some (bw, _, _) when bw >= w -> ()
                | _ -> best := Some (w, a, b)
            end)
          reprs)
      reprs;
    match !best with
    | None -> ()
    | Some (_, a, b) ->
      Hashtbl.replace groups a (Hashtbl.find groups a @ Hashtbl.find groups b);
      Hashtbl.remove groups b;
      loop ()
  in
  loop ();
  List.sort compare
    (Hashtbl.fold (fun _ g acc -> List.sort compare g :: acc) groups [])

(* The driver's tie-breaking differs from the reference's, so compare on
   weight sets where ties cannot occur: distinct powers of two. *)
let prop_merge_driver_matches_reference =
  QCheck.Test.make ~name:"merge driver matches rescan reference (distinct weights)"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_range 0 7) (int_range 0 7)))
    (fun pairs ->
      let pairs = List.filter (fun (u, v) -> u <> v) pairs in
      QCheck.assume (pairs <> []);
      (* Deduplicate pairs; give each a distinct power-of-two weight. *)
      let canonical = List.sort_uniq compare (List.map (fun (u, v) -> (min u v, max u v)) pairs) in
      let edges = List.mapi (fun i (u, v) -> (u, v, Float.of_int (1 lsl i))) canonical in
      let g = Graph.of_edges edges in
      let driver_groups =
        Merge_driver.run ~graph:g ~init:(fun p -> [ p ]) ~merge:(fun a b -> a @ b)
        |> List.map (List.sort compare)
        |> List.sort compare
      in
      driver_groups = reference_merge edges)

(* --- LRU simulator vs a list reference ----------------------------------- *)

let prop_lru_matches_reference =
  QCheck.Test.make ~name:"set-associative LRU matches list reference" ~count:100
    QCheck.(
      pair (int_range 1 4) (list_of_size (Gen.int_range 1 150) (int_range 0 11)))
    (fun (assoc, refs) ->
      let program = Program.of_sizes (Array.make 12 32) in
      let layout = Layout.default program in
      let n_sets = 2 in
      let cache = Config.make ~size:(n_sets * assoc * 32) ~line_size:32 ~assoc in
      let trace = Trace.of_list (List.map ev refs) in
      let sim = Sim.simulate program layout cache trace in
      (* Reference: per-set MRU-first lists. *)
      let sets = Array.make n_sets [] in
      let misses = ref 0 in
      List.iter
        (fun p ->
          let la = Layout.address layout p / 32 in
          let s = la mod n_sets in
          if List.mem la sets.(s) then
            sets.(s) <- la :: List.filter (fun x -> x <> la) sets.(s)
          else begin
            incr misses;
            let kept =
              if List.length sets.(s) >= assoc then
                List.filteri (fun i _ -> i < assoc - 1) sets.(s)
              else sets.(s)
            in
            sets.(s) <- la :: kept
          end)
        refs;
      sim.Sim.misses = !misses)

(* --- Reuse distances vs a scan reference ---------------------------------- *)

let prop_reuse_matches_reference =
  QCheck.Test.make ~name:"reuse distances match scan reference" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 120) (int_range 0 9))
    (fun refs ->
      let program = Program.of_sizes (Array.make 10 32) in
      let layout = Layout.default program in
      let trace = Trace.of_list (List.map ev refs) in
      let r = Reuse.compute program layout ~line_size:32 trace in
      (* Reference: for each reference, scan back for the previous
         occurrence and count distinct lines in between. *)
      let arr = Array.of_list refs in
      let cold = ref 0 in
      let dist_counts = Hashtbl.create 16 in
      Array.iteri
        (fun i p ->
          let rec find j = if j < 0 then None else if arr.(j) = p then Some j else find (j - 1) in
          match find (i - 1) with
          | None -> incr cold
          | Some j ->
            let between = ref [] in
            for k = j + 1 to i - 1 do
              if (not (List.mem arr.(k) !between)) && arr.(k) <> p then
                between := arr.(k) :: !between
            done;
            let d = List.length !between in
            Hashtbl.replace dist_counts d
              (1 + (try Hashtbl.find dist_counts d with Not_found -> 0)))
        arr;
      Reuse.cold_refs r = !cold
      && List.for_all
           (fun (d, c) ->
             (try Hashtbl.find dist_counts d with Not_found -> 0) = c)
           (Reuse.histogram r)
      && Hashtbl.fold (fun _ c acc -> acc + c) dist_counts 0
         = List.fold_left (fun acc (_, c) -> acc + c) 0 (Reuse.histogram r))

(* --- Paging LRU vs reference ------------------------------------------------ *)

let prop_paging_matches_reference =
  QCheck.Test.make ~name:"page-fault LRU matches list reference" ~count:100
    QCheck.(
      pair (int_range 1 4) (list_of_size (Gen.int_range 1 120) (int_range 0 7)))
    (fun (frames, refs) ->
      let program = Program.of_sizes (Array.make 8 4096) in
      let layout = Layout.default program in
      let trace = Trace.of_list (List.map ev refs) in
      let r = Sim.paging program layout ~page_size:4096 ~frames trace in
      let resident = ref [] in
      let faults = ref 0 in
      List.iter
        (fun p ->
          let page = Layout.address layout p / 4096 in
          if List.mem page !resident then
            resident := page :: List.filter (fun x -> x <> page) !resident
          else begin
            incr faults;
            let kept =
              if List.length !resident >= frames then
                List.filteri (fun i _ -> i < frames - 1) !resident
              else !resident
            in
            resident := page :: kept
          end)
        refs;
      r.Sim.page_faults = !faults)

(* --- miss attribution vs the scoreboard simulator ------------------------- *)

(* The attribution simulator re-implements the cache to explain misses;
   on any input its embedded result must equal {!Sim.simulate} exactly,
   and the 3C split must account for every miss. *)
let prop_attrib_matches_sim =
  QCheck.Test.make ~name:"miss attribution matches Sim and 3C sums to total"
    ~count:100
    QCheck.(
      triple (int_range 1 4) (int_range 1 4)
        (list_of_size (Gen.int_range 1 200) (int_range 0 11)))
    (fun (assoc, sets_exp, refs) ->
      let n_sets = 1 lsl (sets_exp mod 3) in
      let program = Program.of_sizes (Array.make 12 32) in
      let rng = Prng.create (List.length refs + (17 * assoc) + n_sets) in
      let layout = Trg_program.Layout.random rng program in
      let cache = Config.make ~size:(n_sets * assoc * 32) ~line_size:32 ~assoc in
      let trace = Trace.of_list (List.map ev refs) in
      let sim = Sim.simulate program layout cache trace in
      let at = Trg_cache.Attrib.simulate program layout cache trace in
      at.Trg_cache.Attrib.result.Sim.misses = sim.Sim.misses
      && at.Trg_cache.Attrib.result.Sim.accesses = sim.Sim.accesses
      && at.Trg_cache.Attrib.compulsory + at.Trg_cache.Attrib.capacity
         + at.Trg_cache.Attrib.conflict
         = sim.Sim.misses)

(* --- incremental cost engine vs from-scratch recomputation --------------- *)

(* A workload with enough structure for the merge loop to take many
   steps: line-friendly procedure sizes and a locality-biased walk. *)
let gen_place_workload =
  QCheck.Gen.(
    pair (int_range 3 14) (pair (int_range 30 400) int)
    |> map (fun (n_procs, (len, seed)) ->
           let rng = Prng.create seed in
           let sizes = Array.init n_procs (fun _ -> 16 + (16 * Prng.int rng 8)) in
           let program = Program.of_sizes sizes in
           let cur = ref (Prng.int rng n_procs) in
           let events =
             List.init len (fun _ ->
                 (if Prng.int rng 4 = 0 then cur := Prng.int rng n_procs
                  else cur := (!cur + 1 + Prng.int rng 2) mod n_procs);
                 Event.make ~kind:Event.Enter ~proc:!cur ~offset:0 ~len:16)
           in
           (program, Trace.of_list events)))

let arb_place_workload =
  QCheck.make gen_place_workload ~print:(fun (program, trace) ->
      Printf.sprintf "%d procs, %d events" (Program.n_procs program)
        (Trace.length trace))

let small_cache = Trg_cache.Config.make ~size:256 ~line_size:32 ~assoc:1

let place_config = Gbsc.default_config ~cache:small_cache ()

(* The heart of the equivalence claim: at {e every} step of the greedy
   merge loop — including states reached through deliberately random
   (non-argmin) shifts — the incremental engine's cost array must equal,
   bit for bit, a from-scratch [Cost.offsets_cost] recomputation over the
   same two nodes.  Exercised for both group-decomposable models. *)
let check_incr_matches_full ~model ~select program ~shift_seed =
  let n_sets = Trg_cache.Config.n_sets small_cache in
  let line_size = small_cache.Trg_cache.Config.line_size in
  match Cost.seed_incr model program ~line_size ~n_sets with
  | None -> QCheck.Test.fail_reportf "seed_incr refused an integral model"
  | Some eng ->
    let rng = Prng.create shift_seed in
    let steps = ref 0 in
    let repr n = fst (List.hd (Node.members n)) in
    let merge n1 n2 =
      let from_incr = Incr.cost eng ~fixed:(repr n1) ~moving:(repr n2) in
      let from_full = Cost.offsets_cost model program ~line_size ~n_sets ~n1 ~n2 in
      if from_incr <> from_full then
        QCheck.Test.fail_reportf
          "cost arrays diverge at merge %d (|%d| vs |%d|, first diff at %d)"
          !steps (Array.length from_incr) (Array.length from_full)
          (let i = ref 0 in
           while
             !i < Array.length from_full && from_incr.(!i) = from_full.(!i)
           do
             incr i
           done;
           !i);
      incr steps;
      (* Half the time take a random shift instead of the argmin, so the
         equality is checked across placement states the production
         search would never visit. *)
      let shift =
        if Prng.bool rng then Prng.int rng n_sets else Cost.best_offset from_full
      in
      Incr.apply_merge eng ~fixed:(repr n1) ~moving:(repr n2) ~shift;
      Node.union ~shift ~modulo:n_sets n1 n2
    in
    ignore (Merge_driver.run ~graph:select ~init:Node.singleton ~merge);
    true

let prop_incr_matches_full_chunk_model =
  QCheck.Test.make
    ~name:"incr cost equals full recompute at every merge (chunk TRG model)"
    ~count:(scaled 40)
    QCheck.(pair arb_place_workload small_int)
    (fun ((program, trace), shift_seed) ->
      let prof = Gbsc.profile place_config program trace in
      let model =
        Cost.Trg_chunks
          { chunks = prof.Gbsc.chunks; trg = prof.Gbsc.place.Trg.graph }
      in
      check_incr_matches_full ~model ~select:prof.Gbsc.select.Trg.graph program
        ~shift_seed)

let prop_incr_matches_full_wcg_model =
  QCheck.Test.make
    ~name:"incr cost equals full recompute at every merge (WCG model)"
    ~count:(scaled 40)
    QCheck.(pair arb_place_workload small_int)
    (fun ((program, trace), shift_seed) ->
      let wcg = Wcg.build trace in
      check_incr_matches_full ~model:(Cost.Wcg_procs { wcg }) ~select:wcg
        program ~shift_seed)

(* End-to-end: whole placements — layouts and therefore simulated miss
   counts — are bit-identical whichever engine runs the search.  Covers
   the seeded paths (GBSC, HKC) and the declared-fallback one (the
   set-associative pair model). *)
let sa_cache = Trg_cache.Config.make ~size:512 ~line_size:32 ~assoc:2

let sa_config = Gbsc.default_config ~cache:sa_cache ()

let prop_engines_agree_on_placements =
  QCheck.Test.make
    ~name:"full and incr engines produce bit-identical placements"
    ~count:(scaled 25) arb_place_workload
    (fun (program, trace) ->
      let prof = Gbsc.profile place_config program trace in
      let wcg = Wcg.build trace in
      let popularity = prof.Gbsc.popularity in
      let layouts () =
        [
          ("gbsc", Gbsc.place program prof);
          ("hkc", Hkc.place place_config program ~wcg ~popularity);
          ("gbsc-sa", Gbsc_sa.run sa_config program trace);
        ]
      in
      let full = with_engine Cost.Full layouts in
      let incremental = with_engine Cost.Incr layouts in
      List.for_all2
        (fun (name, lf) (_, li) ->
          let misses l cache =
            (Sim.simulate program l cache trace).Sim.misses
          in
          if Layout.addresses lf <> Layout.addresses li then
            QCheck.Test.fail_reportf "%s layouts differ between engines" name
          else if
            misses lf small_cache <> misses li small_cache
            || misses lf sa_cache <> misses li sa_cache
          then QCheck.Test.fail_reportf "%s miss counts differ between engines" name
          else true)
        full incremental)

(* Golden work-counter regression on the fixed "small" benchmark: the
   incremental engine must eliminate (>= 10x) the full evaluator's
   offset-candidate work while reproducing its layout and miss rate
   exactly.  Guards the speedup claim the CI gate publishes. *)
let test_incr_work_reduction () =
  let r = Trg_eval.Runner.prepare (Trg_synth.Bench.find "small") in
  let program = Trg_eval.Runner.program r in
  let prof = r.Trg_eval.Runner.prof in
  let work = Metrics.counter "gbsc/offset_candidates" in
  let calls = Metrics.counter "gbsc/cost_calls" in
  let incr_merges = Metrics.counter "cost/incr/merges" in
  let measure k =
    with_engine k (fun () ->
        let w0 = Metrics.value work
        and c0 = Metrics.value calls
        and m0 = Metrics.value incr_merges in
        let layout = Gbsc.place program prof in
        ( layout,
          Metrics.value work - w0,
          Metrics.value calls - c0,
          Metrics.value incr_merges - m0 ))
  in
  let lf, full_work, full_calls, _ = measure Cost.Full in
  let li, incr_work, incr_calls, incr_m = measure Cost.Incr in
  Alcotest.(check (array int))
    "identical layouts" (Layout.addresses lf) (Layout.addresses li);
  Alcotest.(check (float 0.))
    "identical test miss rate"
    (Trg_eval.Runner.test_miss_rate r lf)
    (Trg_eval.Runner.test_miss_rate r li);
  Alcotest.(check bool)
    (Printf.sprintf "full did real work (%d calls, %d candidates)" full_calls
       full_work)
    true
    (full_calls > 0 && full_work > 0);
  Alcotest.(check bool)
    (Printf.sprintf "10x work reduction (full %d vs incr %d)" full_work
       incr_work)
    true
    (full_work >= 10 * max 1 incr_work);
  Alcotest.(check bool)
    (Printf.sprintf "incr path actually ran (%d merges, %d full calls)" incr_m
       incr_calls)
    true
    (incr_m > 0 && incr_calls = 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_qset_matches_reference;
    QCheck_alcotest.to_alcotest prop_trg_stream_matches_reference;
    QCheck_alcotest.to_alcotest prop_merge_driver_matches_reference;
    QCheck_alcotest.to_alcotest prop_lru_matches_reference;
    QCheck_alcotest.to_alcotest prop_reuse_matches_reference;
    QCheck_alcotest.to_alcotest prop_paging_matches_reference;
    QCheck_alcotest.to_alcotest prop_attrib_matches_sim;
    QCheck_alcotest.to_alcotest prop_incr_matches_full_chunk_model;
    QCheck_alcotest.to_alcotest prop_incr_matches_full_wcg_model;
    QCheck_alcotest.to_alcotest prop_engines_agree_on_placements;
    Alcotest.test_case "incr engine 10x work reduction on small" `Quick
      test_incr_work_reduction;
  ]
