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

(* The reference builder: [Ref_q] for Q and [Graph_ref.add_edge g p q 1.]
   on every edge increment.  The production builder counts increments and
   freezes the graph once, so its graph must match this one down to
   adjacency order (newest edge first) and first-seen edge order.  Up to
   100 distinct ids give up to 4950 edges, past the count table's first
   growth. *)
type ref_stream = { g : Graph_ref.t; stats : Qset.stats; refs : int; incrs : int }

(* Q asks each id's size when it first enters, so the reference asks on
   every reference: an id without a size fails at its first one. *)
let reference_stream ~capacity ~size_of feed =
  let g = Graph_ref.create ~hint:1024 () in
  let q = Ref_q.create capacity size_of in
  let last = ref (-1) and populations = ref [] and refs = ref 0 and incrs = ref 0 in
  feed (fun p ->
      if p <> !last then begin
        last := p;
        ignore (size_of p : int);
        incr refs;
        let _, between = Ref_q.reference q p in
        List.iter
          (fun x ->
            incr incrs;
            Graph_ref.add_edge g p x 1.)
          between;
        populations := List.length q.Ref_q.q :: !populations
      end);
  { g; stats = ref_stats (List.rev !populations); refs = !refs; incrs = !incrs }

let reference_trg ~capacity ~size_of ids =
  let r = reference_stream ~capacity ~size_of (fun emit -> List.iter emit ids) in
  (r.g, r.stats)

(* Everything a consumer can observe of a graph, including the orders the
   interface promises.  The node numbering follows each edge's first
   orientation, so it shows an edge oriented other than as first
   counted. *)
let graph_view g =
  let unordered = ref [] in
  Graph.iter_edges_unordered (fun u v w -> unordered := (u, v, w) :: !unordered) g;
  ( Graph.edges g,
    Graph.nodes g,
    List.map (fun u -> (u, Graph.neighbors g u)) (Graph.nodes g),
    List.rev !unordered,
    List.init (Graph.n_nodes g) (Graph.node_id g) )

let ref_view g =
  let unordered = ref [] in
  Graph_ref.iter_edges_unordered (fun u v w -> unordered := (u, v, w) :: !unordered) g;
  ( Graph_ref.edges g,
    Graph_ref.nodes g,
    List.map (fun u -> (u, Graph_ref.neighbors g u)) (Graph_ref.nodes g),
    List.rev !unordered,
    Graph_ref.node_order g )

let prop_trg_stream_matches_reference =
  QCheck.Test.make ~name:"Trg.build_stream matches per-increment reference"
    ~count:(Soak.scaled 200)
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
      graph_view built.Trg.graph = ref_view graph && built.Trg.qstats = qstats)

(* --- Trg.iter_chunks vs Chunk.iter_range per event ----------------------- *)

(* The chunk walk caches each procedure's [keep] verdict, first chunk and
   size, and shifts when the chunk size is a power of two.  The reference
   asks [keep] and calls [Chunk.iter_range] for every event.  Both must
   emit the same ids, and an event past its procedure's end, or of a
   procedure the program lacks, must stop both after the same ids with
   the same exception. *)
let prop_iter_chunks_matches_reference =
  QCheck.Test.make ~name:"Trg.iter_chunks matches per-event iter_range" ~count:(Soak.scaled 300)
    (QCheck.make
       QCheck.Gen.(
         quad
           (list_size (int_range 1 8) (int_range 1 1000))
           (oneofl [ 1; 3; 16; 24; 32; 100; 256 ])
           (list_size (int_range 0 200)
              (quad (int_range 0 8) (int_range 0 1100) (int_range 1 600) (int_range 0 29)))
           (int_range 0 255))
       ~print:(fun (sizes, cs, events, mask) ->
         Printf.sprintf "sizes %s, chunk %d, mask %d, events %s"
           (QCheck.Print.(list int) sizes) cs mask
           (QCheck.Print.(list (quad int int int int)) events)))
    (fun (sizes, chunk_size, events, mask) ->
      let program = Program.of_sizes (Array.of_list sizes) in
      let n = List.length sizes in
      let chunks = Trg_program.Chunk.make ~chunk_size program in
      (* An event of an existing procedure is folded into its range,
         except in modes 0 to 2: as drawn, ending one byte past the end,
         and starting at the end. *)
      let trace =
        Trace.of_list
          (List.map
             (fun (proc, offset, len, mode) ->
               let offset, len =
                 if proc >= n || mode = 0 then (offset, len)
                 else
                   let size = List.nth sizes proc in
                   let offset = offset mod size in
                   match mode with
                   | 1 -> (offset, size - offset + 1)
                   | 2 -> (size, len)
                   | _ -> (offset, 1 + (len mod (size - offset)))
               in
               Event.make ~kind:Event.Run ~proc ~offset ~len)
             events)
      in
      let keep p = p >= n || (mask lsr p) land 1 = 1 in
      let run walk =
        let ids = ref [] in
        let outcome =
          match walk (fun c -> ids := c :: !ids) with
          | () -> "ok"
          | exception Invalid_argument msg -> msg
        in
        (List.rev !ids, outcome)
      in
      run (Trg.iter_chunks ~keep chunks trace)
      = run (fun f ->
            Trace.iter
              (fun (e : Event.t) ->
                if keep e.proc then
                  Trg_program.Chunk.iter_range chunks ~proc:e.proc ~offset:e.offset
                    ~len:e.len f)
              trace))

(* --- Trg.build's one walk vs two reference walks ------------------------- *)

(* [Trg.build] feeds both streams from one walk, each event's chunks
   first.  The reference is what it replaces: a select walk over the
   whole trace, its flush, then a place walk and its flush, each a list
   Q with one [add_edge] per increment.  Both TRGs, both Q statistics
   and the [trg/*] work must agree; on a trace the walks reject, both
   sides must raise the same exception after the same flushes. *)
let trg_counters =
  List.map Metrics.counter
    [ "trg/builds"; "trg/qset_references"; "trg/edge_increments"; "trg/qset_steps" ]

let trg_qmax = Metrics.gauge "trg/qset_max_entries"

(* What a build leaves: its result or its exception's message, the
   counters it added, and the gauge after it. *)
let trg_work f =
  let before = List.map Metrics.value trg_counters in
  let outcome = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
  ( outcome,
    List.map2 (fun c b -> Metrics.value c - b) trg_counters before,
    Metrics.gauge_value trg_qmax )

let reference_two_walks ~keep ~capacity program chunks trace =
  let added = ref [ 0; 0; 0; 0 ] and qmax = ref (Metrics.gauge_value trg_qmax) in
  let flush r =
    added := List.map2 ( + ) !added [ 1; r.refs; r.incrs; r.stats.Qset.steps ];
    qmax := Float.max !qmax (float_of_int r.stats.Qset.max_entries);
    r
  in
  let walk size_of emit_event =
    flush
      (reference_stream ~capacity ~size_of (fun emit ->
           Trace.iter (fun (e : Event.t) -> if keep e.proc then emit_event emit e) trace))
  in
  let outcome =
    match
      let select = walk (Program.size program) (fun emit (e : Event.t) -> emit e.proc) in
      let place =
        walk (Trg_program.Chunk.size_of chunks) (fun emit (e : Event.t) ->
            Trg_program.Chunk.iter_range chunks ~proc:e.proc ~offset:e.offset ~len:e.len emit)
      in
      (ref_view select.g, select.stats, ref_view place.g, place.stats)
    with
    | v -> Ok v
    | exception Invalid_argument m -> Error m
  in
  (outcome, !added, !qmax)

(* Events are drawn from a pool of at most 60, so ids repeat and runs of
   one event collapse.  Up to three faults go in at random places: an
   event one or more bytes past its procedure's end, one starting at the
   end, or one of a procedure the program lacks. *)
let gen_walk_case =
  QCheck.Gen.(
    let* sizes = list_size (int_range 1 40) (int_range 1 2048) in
    let sizes = Array.of_list sizes in
    let n = Array.length sizes in
    let* chunk_size = oneofl [ 32; 48; 100; 256 ] in
    let* capacity = oneof [ int_range 32 512; int_range 512 16384 ] in
    let* kept = array_repeat (n + 3) (frequency [ (3, return true); (1, return false) ]) in
    let valid =
      let* proc = int_bound (n - 1) in
      let* offset = int_bound (sizes.(proc) - 1) in
      let* len = int_range 1 (min 600 (sizes.(proc) - offset)) in
      return (proc, offset, len)
    in
    let fault =
      let* proc = int_bound (n - 1) in
      let size = sizes.(proc) in
      oneof
        [
          map (fun extra -> (proc, size - 1, 2 + extra)) (int_bound 40);
          map (fun len -> (proc, size, len)) (int_range 1 40);
          map (fun k -> (n + k, 0, 1)) (int_bound 2);
        ]
    in
    let* pool = array_size (int_range 1 60) valid in
    let* picks = list_size (int_range 0 2000) (int_bound (Array.length pool - 1)) in
    let* faults =
      frequency
        [ (1, return []); (1, list_size (int_range 1 3) (pair (int_bound 2000) fault)) ]
    in
    let events = List.mapi (fun i k -> (i, pool.(k))) picks in
    let events =
      List.concat_map
        (fun (i, e) ->
          List.filter_map (fun (j, f) -> if i = j then Some f else None) faults @ [ e ])
        events
    in
    return (sizes, chunk_size, capacity, kept, events))

(* The select walk alone, as [Trg.build_select] makes it: the first
   half of [reference_two_walks]. *)
let reference_select_walk ~keep ~capacity program trace =
  let before = Metrics.gauge_value trg_qmax in
  match
    reference_stream ~capacity ~size_of:(Program.size program) (fun emit ->
        Trace.iter (fun (e : Event.t) -> if keep e.proc then emit e.proc) trace)
  with
  | r ->
    ( Ok (ref_view r.g, r.stats),
      [ 1; r.refs; r.incrs; r.stats.Qset.steps ],
      Float.max before (float_of_int r.stats.Qset.max_entries) )
  | exception Invalid_argument m -> (Error m, [ 0; 0; 0; 0 ], before)

let prop_one_walk_matches_two_walks =
  QCheck.Test.make ~name:"Trg.build's one walk matches two reference walks"
    ~count:(Soak.scaled 150)
    (QCheck.make gen_walk_case ~print:(fun (sizes, cs, capacity, kept, events) ->
         Printf.sprintf "sizes %s, chunk %d, capacity %d, kept %s, events %s"
           (QCheck.Print.(array int) sizes) cs capacity
           (QCheck.Print.(array bool) kept)
           (QCheck.Print.(list (triple int int int)) events)))
    (fun (sizes, chunk_size, capacity, kept, events) ->
      let program = Program.of_sizes sizes in
      let chunks = Trg_program.Chunk.make ~chunk_size program in
      let trace =
        Trace.of_list
          (List.map
             (fun (proc, offset, len) -> Event.make ~kind:Event.Run ~proc ~offset ~len)
             events)
      in
      let keep p = kept.(p) in
      let expected = reference_two_walks ~keep ~capacity program chunks trace in
      let got =
        trg_work (fun () ->
            let select, place = Trg.build ~keep ~capacity_bytes:capacity program chunks trace in
            ( graph_view select.Trg.graph,
              select.Trg.qstats,
              graph_view place.Trg.graph,
              place.Trg.qstats ))
      in
      let expected_select = reference_select_walk ~keep ~capacity program trace in
      let got_select =
        trg_work (fun () ->
            let select = Trg.build_select ~keep ~capacity_bytes:capacity program trace in
            (graph_view select.Trg.graph, select.Trg.qstats))
      in
      got = expected && got_select = expected_select)

(* --- Tstats.compute vs a per-event reference ------------------------------ *)

(* [Tstats.compute] derives the enter and transition counts from the
   kind bits.  The reference matches on each event's kind, read through
   [Trace.iter].  Every field must agree, and a procedure past
   [n_procs] must raise in both. *)
let reference_tstats ~n_procs trace =
  let enter = Array.make n_procs 0 and refs = Array.make n_procs 0 in
  let transitions = ref 0 and bytes = ref 0 and n = ref 0 in
  Trace.iter
    (fun (e : Event.t) ->
      if e.proc >= n_procs then
        invalid_arg (Printf.sprintf "Tstats.compute: proc %d out of range" e.proc);
      incr n;
      refs.(e.proc) <- refs.(e.proc) + 1;
      bytes := !bytes + e.len;
      match e.kind with
      | Event.Enter ->
        enter.(e.proc) <- enter.(e.proc) + 1;
        incr transitions
      | Event.Resume -> incr transitions
      | Event.Run -> ())
    trace;
  ( !n,
    !transitions,
    Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 refs,
    enter,
    refs,
    !bytes )

let prop_tstats_matches_reference =
  QCheck.Test.make ~name:"Tstats.compute matches per-event reference" ~count:(Soak.scaled 300)
    (QCheck.make
       QCheck.Gen.(
         let* n_procs = int_range 1 40 in
         let event proc =
           let* kind = oneofl [ Event.Enter; Event.Resume; Event.Run ] in
           let* offset = int_bound 5000 in
           let* len = int_range 1 3000 in
           return (kind, proc, offset, len)
         in
         let* events = list_size (int_range 0 400) (int_bound (n_procs - 1) >>= event) in
         (* One time in four, an event of a procedure past [n_procs]. *)
         let* fault =
           frequency
             [
               (3, return []);
               (1, int_range n_procs (n_procs + 3) >>= event >|= fun e -> [ e ]);
             ]
         in
         let* at = int_bound (List.length events) in
         return
           ( n_procs,
             List.filteri (fun i _ -> i < at) events
             @ fault
             @ List.filteri (fun i _ -> i >= at) events ))
       ~print:(fun (n_procs, events) ->
         Printf.sprintf "n_procs %d, events %s" n_procs
           (QCheck.Print.(list (quad (fun k -> String.make 1 (Event.kind_to_char k)) int int int))
              events)))
    (fun (n_procs, events) ->
      let trace =
        Trace.of_list
          (List.map
             (fun (kind, proc, offset, len) -> Event.make ~kind ~proc ~offset ~len)
             events)
      in
      let run f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      run (fun () ->
          let t = Trg_trace.Tstats.compute ~n_procs trace in
          Trg_trace.Tstats.
            ( t.n_events,
              t.n_transitions,
              t.n_procs_referenced,
              t.enter_counts,
              t.ref_counts,
              t.bytes_executed ))
      = run (fun () -> reference_tstats ~n_procs trace))

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

(* --- Merge driver vs the Hashtbl driver, ties included -------------------- *)

(* The driver on arrays against the polymorphic-[Hashtbl] driver it
   replaced ([Merge_driver_ref]).  Integer weights from 1 to 3 make ties
   the rule, so the pop order of equal weights, which follows the order
   the re-pointed edges are pushed in, decides most merges.  A case is
   built from one seed: 2 to 24 nodes, their ids dense, spread below 100
   or sparse up to [Graph.max_id - 1]; 1 to 80 edges drawn with repeats
   (a repeat adds its weight); one case in four has non-integral
   weights. *)
let driver_case seed =
  let rng = Prng.create seed in
  let k = Prng.int_in rng 2 24 in
  let id_of =
    match Prng.int rng 3 with
    | 0 -> Fun.id
    | 1 -> fun _ -> Prng.int rng 100
    | _ ->
      fun i -> if i = 0 then Graph.max_id - 1 else Prng.int rng Graph.max_id
  in
  let ids = Array.of_list (List.sort_uniq compare (List.init k id_of)) in
  let n = Array.length ids in
  let fractional = Prng.int rng 4 = 0 in
  let weight () =
    let w = Float.of_int (Prng.int_in rng 1 3) in
    if fractional && Prng.bool rng then w *. 0.75 else w
  in
  let edges =
    List.init (Prng.int_in rng 1 80) (fun _ ->
        (ids.(Prng.int rng n), ids.(Prng.int rng n), weight ()))
  in
  Graph.of_edges edges

let merge_counter_names =
  [ "merge/runs"; "merge/heap_pops"; "merge/stale_pops"; "merge/merges"; "merge/replays" ]

let merge_counters () =
  List.map (fun name -> Metrics.value (Metrics.counter name)) merge_counter_names

let qcheck_meta =
  {
    Trg_obs.Journal.algo = "gbsc";
    source = "qcheck";
    engine = "incr";
    cache_size = 0;
    cache_line = 0;
    cache_assoc = 0;
  }

(* One driver call: its groups (members in merge order) or its failure
   message, its [merge/*] counter deltas, and, when [journal], the
   decisions it recorded. *)
let drive ~journal f =
  let module Journal = Trg_obs.Journal in
  let before = merge_counters () in
  if journal then Journal.start_recording ~meta:qcheck_meta;
  let outcome = match f () with g -> Ok g | exception Failure m -> Error m in
  let decisions =
    if not journal then [||]
    else begin
      Journal.finish ~layout_crc:0;
      match Journal.take () with Some j -> j.Journal.decisions | None -> [||]
    end
  in
  (outcome, List.map2 ( - ) (merge_counters ()) before, decisions)

let init id = [ id ]
let merge a b = a @ b

(* Corruptions of a recorded journal, picked by [kind]: a weight, an
   absent group, a size, a runner-up weight, the last one to three
   decisions dropped (the end-of-journal check names the first group
   left with edges), the first decision dropped, two decisions
   swapped. *)
let corrupt rng (decisions : Trg_obs.Journal.decision array) kind =
  let module Journal = Trg_obs.Journal in
  let n = Array.length decisions in
  let d = Array.copy decisions in
  let i = Prng.int rng n in
  (match kind with
  | 0 -> d.(i) <- { d.(i) with Journal.weight = d.(i).Journal.weight +. 1. }
  | 1 -> d.(i) <- { d.(i) with Journal.d_u = Graph.max_id + 5 }
  | 2 -> d.(i) <- { d.(i) with Journal.size_v = d.(i).Journal.size_v + 1 }
  | 3 -> (
    match d.(i).Journal.runner_up with
    | Some r ->
      d.(i) <-
        {
          d.(i) with
          Journal.runner_up = Some { r with Journal.r_weight = r.Journal.r_weight +. 0.5 };
        }
    | None -> ())
  | 4 -> ()
  | 5 -> ()
  | _ ->
    let j = Prng.int rng n in
    let x = d.(i) in
    d.(i) <- d.(j);
    d.(j) <- x);
  match kind with
  | 4 -> Array.sub d 0 (Int.max 0 (n - 1 - Prng.int rng 3))
  | 5 -> Array.sub d 1 (n - 1)
  | _ -> d

let prop_merge_driver_matches_hashtbl_reference =
  QCheck.Test.make ~name:"merge driver matches the Hashtbl driver, ties included"
    ~count:(Soak.scaled 300) QCheck.(int_range 0 1_000_000_000)
    (fun seed ->
      let graph = driver_case seed in
      let same what a b =
        if a <> b then QCheck.Test.fail_reportf "seed %d: %s differ" seed what
      in
      let run () = Merge_driver.run ~graph ~init ~merge
      and run_ref () = Merge_driver_ref.run ~graph ~init ~merge in
      let plain, plain_counts, _ = drive ~journal:false run in
      let ref_plain, ref_plain_counts, _ = drive ~journal:false run_ref in
      same "groups" plain ref_plain;
      same "merge/* counter deltas" plain_counts ref_plain_counts;
      let armed, _, decisions = drive ~journal:true run in
      let ref_armed, _, ref_decisions = drive ~journal:true run_ref in
      same "armed groups" armed ref_armed;
      same "journals" decisions ref_decisions;
      same "armed groups and plain groups" armed plain;
      let replay decisions () = Merge_driver.replay ~graph ~init ~merge ~decisions
      and replay_ref decisions () =
        Merge_driver_ref.replay ~graph ~init ~merge ~decisions
      in
      let check_replay what decisions =
        let got = drive ~journal:false (replay decisions)
        and expected = drive ~journal:false (replay_ref decisions) in
        same what got expected;
        got
      in
      (match check_replay "faithful replays" decisions with
      | (Ok _ as groups), _, _ -> same "faithful replay and run" groups plain
      | Error m, _, _ -> QCheck.Test.fail_reportf "seed %d: faithful replay failed: %s" seed m);
      if Array.length decisions > 0 then begin
        let rng = Prng.create (seed + 1) in
        for kind = 0 to 6 do
          ignore (check_replay (Printf.sprintf "corrupted replays (kind %d)" kind)
                    (corrupt rng decisions kind))
        done
      end;
      true)

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

(* The simulator against the brute-force policy models, over random
   geometry: every policy (Tree-PLRU at power-of-two ways only), 1 to 40
   sets, line sizes with and without a power of two, unaligned addresses
   and events of 1 to 200 bytes, so both of [Sim]'s direct-mapped loops
   and its {!Policy.Probe} loop run.  Half the cases are direct-mapped;
   the rest draw 2, 3, 4 or 8 ways.  Half the direct-mapped cases draw a
   power-of-two line size and set count, so they reach the shift/mask
   loop and its unrolled first and second probes.  Events stay on one
   line, cross one line boundary, cross two, span many lines, or start on
   a line of the last set so that their second line wraps to set 0.
   Events may run past the end of their procedure, which [Sim] accepts;
   attribution rejects them, so its real cache is checked on a copy
   clipped to each procedure. *)
let prop_direct_matches_reference =
  QCheck.Test.make ~name:"direct-mapped Sim matches reference over random geometry"
    ~count:(Soak.scaled 500)
    QCheck.(
      make
        ~print:(fun ((policy, assoc), (line_size, n_sets, seed, n)) ->
          Printf.sprintf "%s, %d-way, line %d, %d sets, seed %d, %d events"
            (Trg_cache.Policy.to_string policy) assoc line_size n_sets seed n)
        Gen.(
          oneofl Trg_cache.Policy.all >>= fun policy ->
          frequency
            [
              (1, return 1);
              ( 1,
                oneofl
                  (if policy = Trg_cache.Policy.Plru then [ 2; 4; 8 ] else [ 2; 3; 4; 8 ])
              );
            ]
          >>= fun assoc ->
          (if assoc = 1 then bool else return false) >>= fun pow2 ->
          (if pow2 then pair (oneofl [ 8; 16; 32; 64 ]) (oneofl [ 1; 2; 4; 8; 16; 32; 64 ])
           else pair (oneofl [ 8; 16; 24; 32; 64 ]) (int_range 1 40))
          >>= fun (line_size, n_sets) ->
          map
            (fun (seed, n) -> ((policy, assoc), (line_size, n_sets, seed, n)))
            (pair int (int_range 1 300))))
    (fun ((policy, assoc), (line_size, n_sets, seed, n)) ->
      let rng = Prng.create seed in
      let program = Program.of_sizes (Array.init 12 (fun _ -> 1 + Prng.int rng 400)) in
      let layout = Layout.random rng program in
      (* An offset into [proc] whose line falls in the last set, if any. *)
      let last_set_offset proc =
        let a = Layout.address layout proc and size = Program.size program proc in
        let rec scan la =
          if la * line_size >= a + size then None
          else if la mod n_sets = n_sets - 1 then Some (max 0 ((la * line_size) - a))
          else scan (la + 1)
        in
        scan (a / line_size)
      in
      let events =
        List.init n (fun _ ->
            let proc = Prng.int rng 12 in
            let shape = Prng.int rng 6 in
            let offset =
              match (shape, last_set_offset proc) with
              | 4, Some off -> off
              | _ -> Prng.int rng (Program.size program proc)
            in
            (* Bytes from the event's start to the end of its first line. *)
            let room = line_size - ((Layout.address layout proc + offset) mod line_size) in
            let len =
              match shape with
              | 0 -> 1 + Prng.int rng room
              | 1 | 4 -> room + 1 + Prng.int rng line_size
              | 2 -> room + line_size + 1 + Prng.int rng line_size
              | 3 -> room + ((2 + Prng.int rng (2 * n_sets)) * line_size) + Prng.int rng line_size
              | _ -> 1 + Prng.int rng 200
            in
            Event.make ~kind:Event.Enter ~proc ~offset ~len)
      in
      let clipped =
        List.map
          (fun (e : Event.t) ->
            Event.make ~kind:e.Event.kind ~proc:e.Event.proc ~offset:e.Event.offset
              ~len:(min e.Event.len (Program.size program e.Event.proc - e.Event.offset)))
          events
      in
      let cache = Config.make ~size:(n_sets * assoc * line_size) ~line_size ~assoc in
      let reference events =
        let probe = Trg_cache.Policy.Reference.create policy ~n_sets ~assoc in
        let accesses = ref 0 and misses = ref 0 and evictions = ref 0 in
        List.iter
          (fun (e : Event.t) ->
            let base = Layout.address layout e.Event.proc + e.Event.offset in
            for la = base / line_size to (base + e.Event.len - 1) / line_size do
              incr accesses;
              match Trg_cache.Policy.Reference.access probe la with
              | -2 -> ()
              | -1 -> incr misses
              | _ ->
                incr misses;
                incr evictions
            done)
          events;
        { Sim.accesses = !accesses; misses = !misses; evictions = !evictions; events = n }
      in
      let sim = Sim.simulate ~policy program layout cache (Trace.of_list events) in
      let attrib =
        (Trg_cache.Attrib.simulate ~policy program layout cache (Trace.of_list clipped))
          .Trg_cache.Attrib.result
      in
      sim = reference events && attrib = reference clipped)

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

(* Events start anywhere in a page-sized procedure and are up to two
   pages long, so they touch one to three pages and never reach past the
   resident set's [span / page + 2] pages.  Faults, page accesses and
   the distinct pages touched all match. *)
let prop_paging_matches_reference =
  QCheck.Test.make ~name:"page-fault LRU matches list reference" ~count:100
    QCheck.(
      pair (int_range 1 4)
        (list_of_size (Gen.int_range 1 120)
           (triple (int_range 0 7) (int_range 0 4095) (int_range 1 8193))))
    (fun (frames, refs) ->
      let program = Program.of_sizes (Array.make 8 4096) in
      let layout = Layout.default program in
      let trace =
        Trace.of_list
          (List.map (fun (proc, offset, len) -> Event.make ~kind:Event.Enter ~proc ~offset ~len) refs)
      in
      let r = Sim.paging program layout ~page_size:4096 ~frames trace in
      let resident = ref [] and touched = ref [] in
      let faults = ref 0 and accesses = ref 0 in
      List.iter
        (fun (p, offset, len) ->
          let base = Layout.address layout p + offset in
          for page = base / 4096 to (base + len - 1) / 4096 do
            incr accesses;
            if not (List.mem page !touched) then touched := page :: !touched;
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
            end
          done)
        refs;
      r.Sim.page_faults = !faults
      && r.Sim.page_accesses = !accesses
      && r.Sim.pages_touched = List.length !touched)

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

(* The wall runs at real geometry: 8 sets, 64 sets (2 KB of 32-byte
   lines) and 6 sets, a count that is not a power of two.  Procedure
   sizes reach twice the cache and events touch random byte ranges, so
   chunks start past set 0, blocks cover up to every set, and a seeded
   trapezoid can span the whole cache. *)
let wall_caches =
  List.map
    (fun size -> Trg_cache.Config.make ~size ~line_size:32 ~assoc:1)
    [ 256; 2048; 192 ]

let gen_wall_workload =
  QCheck.Gen.(
    pair (oneofl wall_caches) (pair (int_range 3 14) (pair (int_range 30 400) int))
    |> map (fun (cache, (n_procs, (len, seed))) ->
           let rng = Prng.create seed in
           let sizes =
             Array.init n_procs (fun _ ->
                 1 + Prng.int rng (2 * cache.Trg_cache.Config.size))
           in
           let program = Program.of_sizes sizes in
           let cur = ref (Prng.int rng n_procs) in
           let events =
             List.init len (fun _ ->
                 (if Prng.int rng 4 = 0 then cur := Prng.int rng n_procs
                  else cur := (!cur + 1 + Prng.int rng 2) mod n_procs);
                 let size = sizes.(!cur) in
                 let offset = Prng.int rng size in
                 Event.make ~kind:Event.Enter ~proc:!cur ~offset
                   ~len:(1 + Prng.int rng (size - offset)))
           in
           (cache, program, Trace.of_list events)))

let arb_wall_workload =
  QCheck.make gen_wall_workload ~print:(fun (cache, program, trace) ->
      Format.asprintf "%a, sizes %s, %d events" Trg_cache.Config.pp cache
        (QCheck.Print.(list int)
           (List.init (Program.n_procs program) (Program.size program)))
        (Trace.length trace))

(* The heart of the equivalence claim: at {e every} step of the greedy
   merge loop — including states reached through deliberately random
   (non-argmin) shifts — the incremental engine's cost array must equal,
   bit for bit, a from-scratch [Cost.offsets_cost] recomputation over the
   same two nodes.  Exercised for both group-decomposable models. *)
let check_incr_matches_full ~cache ~model ~select program ~shift_seed =
  let n_sets = Trg_cache.Config.n_sets cache in
  let line_size = cache.Trg_cache.Config.line_size in
  let evaluator = Cost.prepare model program ~line_size ~n_sets in
  match Cost.seed_incr evaluator with
  | None -> QCheck.Test.fail_reportf "seed_incr refused an integral model"
  | Some eng ->
    let rng = Prng.create shift_seed in
    let steps = ref 0 in
    let repr n = fst (List.hd (Node.members n)) in
    let merge n1 n2 =
      let from_incr = Incr.cost eng ~fixed:(repr n1) ~moving:(repr n2) in
      let from_full = Cost.offsets_cost evaluator ~n1 ~n2 in
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
    ~count:(Soak.scaled 40)
    QCheck.(pair arb_wall_workload small_int)
    (fun ((cache, program, trace), shift_seed) ->
      let prof = Gbsc.profile (Gbsc.default_config ~cache ()) program trace in
      let model =
        Cost.Trg_chunks
          { chunks = prof.Gbsc.chunks; trg = prof.Gbsc.place.Trg.graph }
      in
      check_incr_matches_full ~cache ~model ~select:prof.Gbsc.select.Trg.graph
        program ~shift_seed)

let prop_incr_matches_full_wcg_model =
  QCheck.Test.make
    ~name:"incr cost equals full recompute at every merge (WCG model)"
    ~count:(Soak.scaled 40)
    QCheck.(pair arb_wall_workload small_int)
    (fun ((cache, program, trace), shift_seed) ->
      let wcg = Wcg.build trace in
      check_incr_matches_full ~cache ~model:(Cost.Wcg_procs { wcg }) ~select:wcg
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
    ~count:(Soak.scaled 25) arb_place_workload
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

(* --- the set-range kernel against the pre-Geometry code ----------------- *)

module Geometry = Trg_place.Geometry
module Metric = Trg_place.Metric
module Anneal = Trg_place.Anneal
module Chunk = Trg_program.Chunk
module Perturb = Trg_profile.Perturb
module Pair_db = Trg_profile.Pair_db
module Tuple_db = Trg_profile.Tuple_db

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

(* One random geometry per seed: a set count that is mostly not a power
   of two, a chunk of one to eight lines, and procedure sizes up to
   twice the cache, so blocks start anywhere, wrap, and cover every
   set. *)
type kernel_case = {
  rng : Prng.t;
  n_sets : int;
  line_size : int;
  chunk_size : int;
  program : Program.t;
}

let kernel_case seed =
  let rng = Prng.create seed in
  let n_sets = Prng.choose rng [| 1; 3; 5; 6; 7; 8; 12; 13; 24; 31 |] in
  let line_size = Prng.choose rng [| 16; 32 |] in
  let chunk_size = line_size * Prng.choose rng [| 1; 2; 3; 8 |] in
  let cache = n_sets * line_size in
  let sizes = Array.init (2 + Prng.int rng 9) (fun _ -> 1 + Prng.int rng (2 * cache)) in
  { rng; n_sets; line_size; chunk_size; program = Program.of_sizes sizes }

let print_kernel_case seed =
  let k = kernel_case seed in
  Printf.sprintf "seed %d: %d sets of %d B, %d B chunks, sizes %s" seed k.n_sets
    k.line_size k.chunk_size
    (QCheck.Print.(list int)
       (List.init (Program.n_procs k.program) (Program.size k.program)))

let arb_kernel_seed = QCheck.make ~print:print_kernel_case QCheck.Gen.int

(* Profile weights go through [Perturb], so they are not integers and a
   changed order of additions would show in the bits. *)
let random_graph rng ~n ~edges =
  Perturb.graph rng ~s:Perturb.default_s
    (Graph.of_edges
       (List.init edges (fun _ ->
            (Prng.int rng n, Prng.int rng n, float_of_int (1 + Prng.int rng 9)))))

let random_pairs rng ~n ~entries =
  let db = Pair_db.create () in
  for _ = 1 to entries do
    let p = Prng.int rng n and r = Prng.int rng n and s = Prng.int rng n in
    if p <> r && p <> s && r <> s then
      Pair_db.add db ~p ~r ~s (float_of_int (1 + Prng.int rng 9))
  done;
  Perturb.pair_db rng ~s:Perturb.default_s db

let random_tuples rng ~n ~arity ~entries =
  let db = Tuple_db.create ~arity in
  for _ = 1 to entries do
    let p = Prng.int rng n in
    let ids = List.sort_uniq compare (List.init arity (fun _ -> Prng.int rng n)) in
    if List.length ids = arity && not (List.mem p ids) then
      Tuple_db.add db ~p ~ids (float_of_int (1 + Prng.int rng 9))
  done;
  Perturb.tuple_db rng ~s:Perturb.default_s db

(* A node whose members after the first sit at random offsets. *)
let random_node rng ~n_sets = function
  | [] -> invalid_arg "random_node"
  | p :: rest ->
    List.fold_left
      (fun node q ->
        Node.union ~shift:(Prng.int rng n_sets) ~modulo:n_sets node (Node.singleton q))
      (Node.singleton p) rest

(* Two disjoint nonempty nodes over a random subset of the procedures. *)
let random_split rng ~n_sets n_procs =
  let order = Array.init n_procs Fun.id in
  Prng.shuffle rng order;
  let k = 2 + Prng.int rng (n_procs - 1) in
  let cut = 1 + Prng.int rng (k - 1) in
  ( random_node rng ~n_sets (Array.to_list (Array.sub order 0 cut)),
    random_node rng ~n_sets (Array.to_list (Array.sub order cut (k - cut))) )

let prop_cost_models_match_reference =
  QCheck.Test.make ~name:"cost models match the reference over random geometry"
    ~count:(Soak.scaled 300) arb_kernel_seed (fun seed ->
      let { rng; n_sets; line_size; chunk_size; program } = kernel_case seed in
      let chunks = Chunk.make ~chunk_size program in
      let n_chunks = Chunk.total chunks and n_procs = Program.n_procs program in
      let trg = random_graph rng ~n:n_chunks ~edges:(3 * n_chunks) in
      let wcg = random_graph rng ~n:n_procs ~edges:(3 * n_procs) in
      let pairs = random_pairs rng ~n:n_chunks ~entries:60 in
      let tuples =
        random_tuples rng ~n:n_chunks ~arity:(2 + Prng.int rng 2) ~entries:60
      in
      let models =
        [
          ("Trg_chunks", Cost.Trg_chunks { chunks; trg });
          ("Wcg_procs", Cost.Wcg_procs { wcg });
          ("Sa_pairs", Cost.Sa_pairs { chunks; db = pairs });
          ("Sa_tuples", Cost.Sa_tuples { chunks; db = tuples });
          ( "Blend",
            Cost.Blend
              [
                (Cost.Sa_tuples { chunks; db = tuples }, 1.0);
                (Cost.Trg_chunks { chunks; trg }, 0.25);
                (Cost.Wcg_procs { wcg }, 0.5);
              ] );
        ]
      in
      let splits = List.init 3 (fun _ -> random_split rng ~n_sets n_procs) in
      (* One evaluator serves every split, as one serves a whole
         placement. *)
      List.for_all
        (fun (name, model) ->
          let evaluator = Cost.prepare model program ~line_size ~n_sets in
          List.for_all
            (fun (n1, n2) ->
              let got = Cost.offsets_cost evaluator ~n1 ~n2
              and want = Cost_ref.offsets_cost model program ~line_size ~n_sets ~n1 ~n2 in
              same_floats got want
              || QCheck.Test.fail_reportf "%s: cost %s, reference %s" name
                   (QCheck.Print.(array float) got)
                   (QCheck.Print.(array float) want))
            splits)
        models
      &&
      let evaluator = Cost.prepare (Cost.Wcg_procs { wcg }) program ~line_size ~n_sets in
      List.for_all
        (fun (n1, n2) ->
          List.for_all
            (fun node ->
              Cost.occupancy evaluator node
              = Cost_ref.node_occupancy program ~line_size ~n_sets node)
            [ n1; n2 ])
        splits)

(* Figure 6's metrics on layouts whose procedures start anywhere in a
   line, with random gaps between them. *)
let prop_metrics_match_reference =
  QCheck.Test.make ~name:"metrics match the reference on unaligned layouts"
    ~count:(Soak.scaled 300) arb_kernel_seed (fun seed ->
      let { rng; n_sets; line_size; chunk_size; program } = kernel_case seed in
      let cache = Config.make ~size:(n_sets * line_size) ~line_size ~assoc:1 in
      let chunks = Chunk.make ~chunk_size program in
      let n_procs = Program.n_procs program in
      let trg = random_graph rng ~n:(Chunk.total chunks) ~edges:(3 * Chunk.total chunks) in
      let wcg = random_graph rng ~n:n_procs ~edges:(3 * n_procs) in
      let order = Array.init n_procs Fun.id in
      Prng.shuffle rng order;
      let addr = Array.make n_procs 0 and cursor = ref (Prng.int rng (2 * line_size)) in
      Array.iter
        (fun p ->
          addr.(p) <- !cursor;
          cursor := !cursor + Program.size program p + Prng.int rng (2 * line_size))
        order;
      let layout = Layout.of_addresses program addr in
      let check name got want =
        same_bits got want
        || QCheck.Test.fail_reportf "%s: %h, reference %h" name got want
      in
      check "trg_place"
        (Metric.trg_place program ~chunks ~trg ~cache layout)
        (Cost_ref.trg_place program ~chunks ~trg ~cache layout)
      && check "wcg"
           (Metric.wcg program ~wcg ~cache layout)
           (Cost_ref.wcg program ~wcg ~cache layout))

(* The annealer's objective at random offsets, some past the set count,
   on a profile of a random walk. *)
let prop_anneal_cost_matches_reference =
  QCheck.Test.make ~name:"anneal cost matches the reference at random offsets"
    ~count:(Soak.scaled 100) arb_kernel_seed (fun seed ->
      let { rng; n_sets; line_size; chunk_size; program } = kernel_case seed in
      let cache = Config.make ~size:(n_sets * line_size) ~line_size ~assoc:1 in
      let config = { (Gbsc.default_config ~cache ()) with Gbsc.chunk_size } in
      let n_procs = Program.n_procs program in
      let trace =
        Trace.of_list
          (List.init 200 (fun _ ->
               let proc = Prng.int rng n_procs in
               let size = Program.size program proc in
               let offset = Prng.int rng size in
               Event.make ~kind:Event.Enter ~proc ~offset
                 ~len:(1 + Prng.int rng (size - offset))))
      in
      let profile = Gbsc.profile config program trace in
      let offsets =
        List.filter_map
          (fun p -> if Prng.int rng 4 = 0 then None else Some (p, Prng.int rng (3 * n_sets)))
          (List.init n_procs Fun.id)
      in
      let got = Anneal.cost config program ~profile ~offsets
      and want = Cost_ref.anneal_cost config program ~profile ~offsets in
      same_bits got want || QCheck.Test.fail_reportf "cost %h, reference %h" got want)

(* --- the linearizer's gap filling ----------------------------------------- *)

module Linearize = Trg_place.Linearize

(* Random programs split at random into popular procedures, each with a
   target set, and fillers in random order.  Sizes come partly from a few
   fixed values, so fillers tie on size and the id order decides, and
   partly from 1 to 3x the cache, so some gaps take none.  The same
   filler must fill every gap, with and without an affinity bias. *)
let prop_linearize_matches_reference =
  QCheck.Test.make ~name:"linearize fills gaps as the list-scanning reference"
    ~count:(Soak.scaled 300)
    QCheck.(int_range 0 1_000_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let line_size = 32 and n_sets = 4 + Prng.int rng 60 in
      let n = 1 + Prng.int rng 80 in
      let sizes =
        Array.init n (fun _ ->
            if Prng.bool rng then Prng.choose rng [| 4; 32; 60; 100; 256 |]
            else 1 + Prng.int rng (3 * n_sets * line_size))
      in
      let program = Program.of_sizes sizes in
      let popular = Array.init n (fun _ -> Prng.int rng 3 = 0) in
      let placed =
        List.filter_map
          (fun p -> if popular.(p) then Some (p, Prng.int rng n_sets) else None)
          (List.init n Fun.id)
      in
      let filler = Array.of_list (List.filter (fun p -> not popular.(p)) (List.init n Fun.id)) in
      for i = Array.length filler - 1 downto 1 do
        let j = Prng.int rng (i + 1) in
        let x = filler.(i) in
        filler.(i) <- filler.(j);
        filler.(j) <- x
      done;
      let salt = Prng.int rng 1000 in
      let affinity a b = float_of_int (((a * 7919) + (b * 104729) + salt) mod 13) in
      List.for_all
        (fun affinity ->
          let got = Linearize.layout ?affinity program ~line_size ~n_sets ~placed ~filler
          and want =
            Linearize_ref.layout ?affinity program ~line_size ~n_sets ~placed ~filler
          in
          Layout.digest got = Layout.digest want
          || QCheck.Test.fail_reportf "%d procedures, %d sets: digest %08x, reference %08x"
               n n_sets (Layout.digest got) (Layout.digest want))
        [ None; Some affinity ])

(* --- layout validation and the radix sort ------------------------------- *)

(* Keys from a narrow range (many ties), a wide one, and the ends of the
   [int] range, where [max - min] overflows. *)
let prop_radix_matches_stable_sort =
  QCheck.Test.make ~name:"radix order matches a stable sort" ~count:(Soak.scaled 300)
    QCheck.(int_range 0 1_000_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int rng 300 in
      let draw =
        match Prng.int rng 3 with
        | 0 -> fun () -> Prng.int rng 7 - 3
        | 1 -> fun () -> Prng.int rng 1_000_000_000 - 500_000_000
        | _ -> fun () -> Prng.choose rng [| min_int; max_int; -1; 0; 1; min_int + 1 |]
      in
      let keys = Array.init n (fun _ -> draw ()) in
      let want = Array.init n Fun.id in
      Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) want;
      Trg_util.Radix.order keys = want)

(* Random programs at random addresses: a valid packing with gaps, then
   up to two faults, each an overlap, a shared address or a negative
   address.  Where addresses are distinct the library gives the
   reference's span or its message; where two procedures share one, both
   reject the layout. *)
let prop_validate_matches_reference =
  QCheck.Test.make ~name:"layout validation matches the sorting reference"
    ~count:(Soak.scaled 300)
    QCheck.(int_range 0 1_000_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 1 + Prng.int rng 40 in
      let program = Program.of_sizes (Array.init n (fun _ -> 1 + Prng.int rng 200)) in
      let order = Array.init n Fun.id in
      Prng.shuffle rng order;
      let addr = Array.make n 0 and cursor = ref 0 in
      Array.iter
        (fun p ->
          cursor := !cursor + Prng.int rng 64;
          addr.(p) <- !cursor;
          cursor := !cursor + Program.size program p)
        order;
      for _ = 1 to Prng.int rng 3 do
        let p = Prng.int rng n and q = Prng.int rng n in
        match Prng.int rng 3 with
        | 0 -> addr.(p) <- addr.(q) + Prng.int rng (Program.size program q)
        | 1 -> addr.(p) <- addr.(q)
        | _ -> addr.(p) <- -1 - Prng.int rng 1000
      done;
      let outcome f = match f () with span -> Ok span | exception Invalid_argument m -> Error m in
      let got = outcome (fun () -> Layout.span (Layout.of_addresses program addr))
      and want = outcome (fun () -> Layout_ref.validate program addr) in
      let sorted = Array.copy addr in
      Array.sort compare sorted;
      let distinct = ref true in
      for i = 1 to n - 1 do
        if sorted.(i) = sorted.(i - 1) then distinct := false
      done;
      let show = function Ok span -> Printf.sprintf "span %d" span | Error m -> m in
      (match (!distinct, got, want) with
      | true, _, _ -> got = want
      | false, Error _, Error _ -> true
      | false, _, _ -> false)
      || QCheck.Test.fail_reportf "%d procedures: %s, reference %s" n (show got) (show want))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_qset_matches_reference;
    QCheck_alcotest.to_alcotest prop_trg_stream_matches_reference;
    QCheck_alcotest.to_alcotest prop_iter_chunks_matches_reference;
    QCheck_alcotest.to_alcotest prop_one_walk_matches_two_walks;
    QCheck_alcotest.to_alcotest prop_tstats_matches_reference;
    QCheck_alcotest.to_alcotest prop_merge_driver_matches_reference;
    QCheck_alcotest.to_alcotest prop_merge_driver_matches_hashtbl_reference;
    QCheck_alcotest.to_alcotest prop_lru_matches_reference;
    QCheck_alcotest.to_alcotest prop_direct_matches_reference;
    QCheck_alcotest.to_alcotest prop_reuse_matches_reference;
    QCheck_alcotest.to_alcotest prop_paging_matches_reference;
    QCheck_alcotest.to_alcotest prop_attrib_matches_sim;
    QCheck_alcotest.to_alcotest prop_incr_matches_full_chunk_model;
    QCheck_alcotest.to_alcotest prop_incr_matches_full_wcg_model;
    QCheck_alcotest.to_alcotest prop_engines_agree_on_placements;
    QCheck_alcotest.to_alcotest prop_cost_models_match_reference;
    QCheck_alcotest.to_alcotest prop_metrics_match_reference;
    QCheck_alcotest.to_alcotest prop_anneal_cost_matches_reference;
    QCheck_alcotest.to_alcotest prop_linearize_matches_reference;
    QCheck_alcotest.to_alcotest prop_radix_matches_stable_sort;
    QCheck_alcotest.to_alcotest prop_validate_matches_reference;
    Alcotest.test_case "incr engine 10x work reduction on small" `Quick
      test_incr_work_reduction;
  ]
