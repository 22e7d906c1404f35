module Graph = Trg_profile.Graph
module Ref = Graph_ref

let test_add_and_weight () =
  let g = Graph.of_edges [ (1, 2, 3.); (2, 1, 2.) ] in
  Alcotest.(check (float 1e-9)) "accumulated" 5. (Graph.weight g 1 2);
  Alcotest.(check (float 1e-9)) "symmetric" 5. (Graph.weight g 2 1);
  Alcotest.(check (float 1e-9)) "absent" 0. (Graph.weight g 1 3)

let test_self_edge_ignored () =
  let g = Graph.of_edges [ (4, 4, 10.) ] in
  Alcotest.(check int) "no edge" 0 (Graph.n_edges g);
  Alcotest.(check (float 1e-9)) "zero" 0. (Graph.weight g 4 4)

let test_neighbors_no_duplicates () =
  let g = Graph.of_edges [ (1, 2, 1.); (1, 2, 1.); (1, 3, 1.) ] in
  let n = List.sort compare (Graph.neighbors g 1) in
  Alcotest.(check (list int)) "neighbors" [ 2; 3 ] n;
  Alcotest.(check int) "degree" 2 (Graph.degree g 1);
  Alcotest.(check (list int)) "isolated" [] (Graph.neighbors g 9)

let test_nodes_edges () =
  let g = Graph.of_edges [ (1, 2, 1.); (3, 2, 2.); (5, 1, 4.) ] in
  Alcotest.(check (list int)) "nodes" [ 1; 2; 3; 5 ] (Graph.nodes g);
  Alcotest.(check int) "n_nodes" 4 (Graph.n_nodes g);
  Alcotest.(check int) "n_edges" 3 (Graph.n_edges g);
  Alcotest.(check (float 1e-9)) "total weight" 7. (Graph.total_weight g);
  let edges = Graph.edges g in
  Alcotest.(check bool) "canonical sorted" true
    (edges = [| (1, 2, 1.); (1, 5, 4.); (2, 3, 2.) |])

let test_mem_edge () =
  let g = Graph.of_edges [ (1, 2, 1.) ] in
  Alcotest.(check bool) "present" true (Graph.mem_edge g 2 1);
  Alcotest.(check bool) "absent" false (Graph.mem_edge g 1 3)

let test_map_weights () =
  let g = Graph.of_edges [ (1, 2, 2.); (2, 3, 3.) ] in
  let doubled = Graph.map_weights (fun _ _ w -> 2. *. w) g in
  Alcotest.(check (float 1e-9)) "doubled" 4. (Graph.weight doubled 1 2);
  Alcotest.(check (float 1e-9)) "doubled" 6. (Graph.weight doubled 2 3);
  Alcotest.(check (float 1e-9)) "original" 2. (Graph.weight g 1 2)

let test_filter_nodes () =
  let g = Graph.of_edges [ (1, 2, 1.); (2, 3, 2.); (3, 4, 3.) ] in
  let sub = Graph.filter_nodes (fun n -> n <> 3) g in
  Alcotest.(check int) "only 1-2 survives" 1 (Graph.n_edges sub);
  Alcotest.(check (float 1e-9)) "kept" 1. (Graph.weight sub 1 2)

let test_id_range_check () =
  let rejects edges =
    match Graph.of_edges edges with
    | _ -> Alcotest.fail "of_edges accepted an id out of range"
    | exception Invalid_argument msg -> msg
  in
  Alcotest.(check string) "negative id rejected" "Graph: node id -1 out of range"
    (rejects [ (-1, 2, 1.) ]);
  Alcotest.(check string) "huge id rejected" "Graph: node id 16777216 out of range"
    (rejects [ (0, Graph.max_id, 1.) ]);
  let g = Graph.of_edges [ (1, 5, 2.) ] in
  (* 2^24 + 5 packs onto the key of {1, 5}; it names no edge. *)
  Alcotest.(check (float 0.)) "out-of-range lookup" 0. (Graph.weight g 0 (Graph.max_id + 5));
  Alcotest.(check bool) "negative lookup" false (Graph.mem_edge g (-1) 5)

(* --- Counts and the reference wall ------------------------------------ *)

(* Everything a consumer can observe of a graph, in the orders the
   interface promises, with weights as bits.  [probe] lists ids worth
   looking up: present, absent, and both ends of every generated pair.
   One view function per implementation, built from the same module
   signature. *)
module type VIEWABLE = sig
  type t

  val edges : t -> (int * int * float) array
  val nodes : t -> int list
  val neighbors : t -> int -> int list
  val degree : t -> int -> int
  val weight : t -> int -> int -> float
  val mem_edge : t -> int -> int -> bool
  val n_nodes : t -> int
  val n_edges : t -> int
  val iter_edges_unordered : (int -> int -> float -> unit) -> t -> unit
end

let bits = Int64.bits_of_float

let rec next_up = function u :: (v :: _ as rest) -> (u, v) :: next_up rest | _ -> []

module View (G : VIEWABLE) = struct
  let view ~probe g =
    let unordered = ref [] in
    G.iter_edges_unordered (fun u v w -> unordered := (u, v, bits w) :: !unordered) g;
    let ids = List.sort_uniq compare (G.nodes g @ probe) in
    (* Both orientations of every edge, every self pair, and each id
       against the next one up, which is mostly absent. *)
    let pairs =
      List.concat_map (fun (u, v, _) -> [ (u, v); (v, u) ]) (Array.to_list (G.edges g))
      @ List.map (fun u -> (u, u)) ids
      @ next_up ids
    in
    ( Array.map (fun (u, v, w) -> (u, v, bits w)) (G.edges g),
      G.nodes g,
      List.map (fun u -> (u, G.neighbors g u, G.degree g u)) ids,
      List.map (fun (u, v) -> (bits (G.weight g u v), G.mem_edge g u v)) pairs,
      (G.n_nodes g, G.n_edges g),
      List.rev !unordered )
end

module V = View (Graph)
module V_ref = View (Ref)

(* The neighbour walk the cost evaluator uses: [neighbors] order, each
   with its edge's ends and weight. *)
let walk g u =
  let l = ref [] in
  Graph.iter_neighbors g u (fun v e ->
      l := (v, Graph.edge_ends g e, bits (Graph.edge_weight g e)) :: !l);
  List.rev !l

let walk_ref r u =
  List.map
    (fun v -> (v, (min u v lsl 24) lor max u v, bits (Ref.weight r u v)))
    (Ref.neighbors r u)

(* Edges by number: first-seen order, through both accessors. *)
let numbered g =
  let copy = Graph.weights g in
  List.init (Graph.n_edges g) (fun e ->
      (Graph.edge_ends g e, bits (Graph.edge_weight g e), bits copy.(e)))

let numbered_ref r =
  let l = ref [] in
  Ref.iter_edges_unordered (fun u v w -> l := ((u lsl 24) lor v, bits w, bits w) :: !l) r;
  List.rev !l

(* A tiny hint makes the count table and its first-seen arrays grow many
   times; the graph must still be the one [add_edge _ _ 1.] per increment
   builds, self-edges included (both ignore them), in first-seen order.
   Edge positions are numbered in first-seen order and carry the same
   counts. *)
let prop_counts_match_add_edge =
  QCheck.Test.make ~name:"Counts graph = add_edge per increment" ~count:200
    QCheck.(
      pair (int_range 1 64)
        (list_of_size (Gen.int_range 0 3000) (pair (int_range 0 300) (int_range 0 300))))
    (fun (hint, pairs) ->
      let counts = Graph.Counts.create ~hint () in
      let g = Ref.create ~hint () in
      let seen = Hashtbl.create 64 in
      let numbered_on_first_sight =
        List.for_all
          (fun (p, q) ->
            Graph.Counts.add counts p q;
            Ref.add_edge g p q 1.;
            let k = (min p q, max p q) in
            p = q
            || Hashtbl.mem seen k
            ||
            let position = Hashtbl.length seen in
            Hashtbl.add seen k ();
            Graph.Counts.index counts p q = position)
          pairs
      in
      numbered_on_first_sight
      && Graph.Counts.length counts = Ref.n_edges g
      && List.for_all
           (fun (p, q) ->
             let i = Graph.Counts.index counts p q in
             if p = q then i = -1
             else Graph.Counts.count counts i = int_of_float (Ref.weight g p q))
           pairs
      && V.view ~probe:[] (Graph.Counts.to_graph counts) = V_ref.view ~probe:[] g)

let test_counts_id_range_and_snapshots () =
  let c = Graph.Counts.create () in
  let rejects p q =
    match Graph.Counts.add c p q with
    | () -> Alcotest.failf "Counts.add %d %d accepted" p q
    | exception Invalid_argument msg -> msg
  in
  (* An id of 2^24 would otherwise pack onto the key of a valid pair. *)
  Alcotest.(check string) "id 2^24" "Graph: node id 16777216 out of range"
    (rejects 0 Graph.max_id);
  Alcotest.(check string) "negative id" "Graph: node id -1 out of range" (rejects (-1) 2);
  Graph.Counts.add c 1 2;
  let first = Graph.Counts.to_graph c in
  Graph.Counts.add c 2 1;
  Graph.Counts.add c 2 3;
  Alcotest.(check int) "snapshot unchanged" 1 (Graph.n_edges first);
  Alcotest.(check (float 0.)) "snapshot weight" 1. (Graph.weight first 1 2);
  (* The snapshot's edge index must not see edges added after it. *)
  Alcotest.(check bool) "snapshot index unchanged" false (Graph.mem_edge first 2 3);
  let second = Graph.Counts.to_graph c in
  Alcotest.(check (float 0.)) "counts continue" 2. (Graph.weight second 1 2);
  Alcotest.(check int) "new edge" 2 (Graph.n_edges second)

let prop_weight_symmetric =
  QCheck.Test.make ~name:"graph weight symmetric" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (triple (int_range 0 20) (int_range 0 20) (float_range 0.1 10.)))
    (fun edges ->
      let g = Graph.of_edges edges in
      List.for_all (fun (u, v, _) -> Graph.weight g u v = Graph.weight g v u) edges)

(* Random edge streams over a pool of up to 12 ids drawn from the whole
   id range, so repeats and self-edges are common and ids reach
   2^24 - 1; weights are non-integral.  Each stream builds one graph
   through [Counts] (weight 1 per occurrence) and one through [of_edges];
   both must match the reference built by [add_edge] in stream order, and
   so must their [map_weights] and [filter_nodes] results, including the
   sequence of calls to the function each is given. *)
let gen_stream =
  QCheck.Gen.(
    let id = oneof [ int_range 0 (Graph.max_id - 1); int_range (Graph.max_id - 4) (Graph.max_id - 1); int_range 0 40 ] in
    list_size (int_range 1 12) id >>= fun pool ->
    let pool = Array.of_list pool in
    let pick = map (fun i -> pool.(i)) (int_range 0 (Array.length pool - 1)) in
    triple (int_range 1 64)
      (list_size (int_range 0 200)
         (triple pick pick (map (fun k -> float_of_int k /. 7.) (int_range (-50) 400))))
      (int_range 1 5))

let prop_frozen_matches_reference =
  QCheck.Test.make ~name:"frozen graph matches hash-table reference" ~count:300
    (QCheck.make gen_stream ~print:(fun (hint, stream, salt) ->
         Printf.sprintf "hint %d, salt %d, %s" hint salt
           (QCheck.Print.(list (triple int int float)) stream)))
    (fun (hint, stream, salt) ->
      let probe =
        List.concat_map (fun (u, v, _) -> [ u; v ]) stream @ [ 0; Graph.max_id - 1 ]
      in
      let same g r =
        V.view ~probe g = V_ref.view ~probe r
        && List.for_all (fun u -> walk g u = walk_ref r u) probe
        && numbered g = numbered_ref r
      in
      let derived g r =
        let calls = ref [] and calls_ref = ref [] in
        let f log u v w =
          log := (u, v, bits w) :: !log;
          (w *. 1.25) +. float_of_int (u mod 3)
        in
        let mapped = Graph.map_weights (f calls) g in
        let mapped_ref = Ref.map_weights (f calls_ref) r in
        let keeps = ref [] and keeps_ref = ref [] in
        let keep log x =
          log := x :: !log;
          (x / salt) mod 4 <> 0
        in
        let kept = Graph.filter_nodes (keep keeps) g in
        let kept_ref = Ref.filter_nodes (keep keeps_ref) r in
        !calls = !calls_ref && same mapped mapped_ref
        && !keeps = !keeps_ref && same kept kept_ref
      in
      let counts = Graph.Counts.create ~hint () in
      let ref_counts = Ref.create () in
      List.iter
        (fun (u, v, _) ->
          Graph.Counts.add counts u v;
          Ref.add_edge ref_counts u v 1.)
        stream;
      let listed = Graph.of_edges stream and listed_ref = Ref.of_edges stream in
      let counted = Graph.Counts.to_graph counts in
      same counted ref_counts && derived counted ref_counts
      && same listed listed_ref && derived listed listed_ref)

let suite =
  [
    Alcotest.test_case "add and weight" `Quick test_add_and_weight;
    Alcotest.test_case "self edge ignored" `Quick test_self_edge_ignored;
    Alcotest.test_case "neighbors no duplicates" `Quick test_neighbors_no_duplicates;
    Alcotest.test_case "nodes and edges" `Quick test_nodes_edges;
    Alcotest.test_case "mem_edge" `Quick test_mem_edge;
    Alcotest.test_case "map_weights" `Quick test_map_weights;
    Alcotest.test_case "filter_nodes" `Quick test_filter_nodes;
    Alcotest.test_case "id range check" `Quick test_id_range_check;
    QCheck_alcotest.to_alcotest prop_weight_symmetric;
    QCheck_alcotest.to_alcotest prop_counts_match_add_edge;
    Alcotest.test_case "Counts id range and snapshots" `Quick
      test_counts_id_range_and_snapshots;
    QCheck_alcotest.to_alcotest prop_frozen_matches_reference;
  ]
