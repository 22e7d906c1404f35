module Graph = Trg_profile.Graph

let test_add_and_weight () =
  let g = Graph.create () in
  Graph.add_edge g 1 2 3.;
  Graph.add_edge g 2 1 2.;
  Alcotest.(check (float 1e-9)) "accumulated" 5. (Graph.weight g 1 2);
  Alcotest.(check (float 1e-9)) "symmetric" 5. (Graph.weight g 2 1);
  Alcotest.(check (float 1e-9)) "absent" 0. (Graph.weight g 1 3)

let test_self_edge_ignored () =
  let g = Graph.create () in
  Graph.add_edge g 4 4 10.;
  Alcotest.(check int) "no edge" 0 (Graph.n_edges g);
  Alcotest.(check (float 1e-9)) "zero" 0. (Graph.weight g 4 4)

let test_set_edge () =
  let g = Graph.create () in
  Graph.set_edge g 1 2 3.;
  Graph.set_edge g 1 2 7.;
  Alcotest.(check (float 1e-9)) "overwritten" 7. (Graph.weight g 1 2)

let test_neighbors_no_duplicates () =
  let g = Graph.create () in
  Graph.add_edge g 1 2 1.;
  Graph.add_edge g 1 2 1.;
  Graph.add_edge g 1 3 1.;
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

let test_copy_independent () =
  let g = Graph.of_edges [ (1, 2, 1.) ] in
  let g' = Graph.copy g in
  Graph.add_edge g' 1 2 5.;
  Graph.add_edge g' 7 8 1.;
  Alcotest.(check (float 1e-9)) "original intact" 1. (Graph.weight g 1 2);
  Alcotest.(check int) "original edges" 1 (Graph.n_edges g);
  Alcotest.(check (float 1e-9)) "copy updated" 6. (Graph.weight g' 1 2)

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
  let g = Graph.create () in
  Alcotest.(check bool) "negative id rejected" true
    (try
       Graph.add_edge g (-1) 2 1.;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "huge id rejected" true
    (try
       Graph.add_edge g 0 Graph.max_id 1.;
       false
     with Invalid_argument _ -> true)

(* --- Counts ------------------------------------------------------------ *)

let graph_view g =
  let unordered = ref [] in
  Graph.iter_edges_unordered (fun u v w -> unordered := (u, v, w) :: !unordered) g;
  ( Graph.edges g,
    List.map (fun u -> (u, Graph.neighbors g u)) (Graph.nodes g),
    List.rev !unordered )

(* A tiny hint makes the count table and its first-seen arrays grow many
   times; the graph must still be the one [add_edge _ _ 1.] per increment
   builds, self-edges included (both ignore them).  Edge positions are
   numbered in first-seen order and carry the same counts. *)
let prop_counts_match_add_edge =
  QCheck.Test.make ~name:"Counts graph = add_edge per increment" ~count:200
    QCheck.(
      pair (int_range 1 64)
        (list_of_size (Gen.int_range 0 3000) (pair (int_range 0 300) (int_range 0 300))))
    (fun (hint, pairs) ->
      let counts = Graph.Counts.create ~hint () in
      let g = Graph.create ~hint () in
      let seen = Hashtbl.create 64 in
      let numbered_on_first_sight =
        List.for_all
          (fun (p, q) ->
            Graph.Counts.add counts p q;
            Graph.add_edge g p q 1.;
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
      && Graph.Counts.length counts = Graph.n_edges g
      && List.for_all
           (fun (p, q) ->
             let i = Graph.Counts.index counts p q in
             if p = q then i = -1
             else Graph.Counts.count counts i = int_of_float (Graph.weight g p q))
           pairs
      && graph_view (Graph.Counts.to_graph counts) = graph_view g)

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
  let second = Graph.Counts.to_graph c in
  Alcotest.(check (float 0.)) "counts continue" 2. (Graph.weight second 1 2);
  Alcotest.(check int) "new edge" 2 (Graph.n_edges second)

let prop_weight_symmetric =
  QCheck.Test.make ~name:"graph weight symmetric" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (triple (int_range 0 20) (int_range 0 20) (float_range 0.1 10.)))
    (fun edges ->
      let g = Graph.create () in
      List.iter (fun (u, v, w) -> Graph.add_edge g u v w) edges;
      List.for_all (fun (u, v, _) -> Graph.weight g u v = Graph.weight g v u) edges)

let suite =
  [
    Alcotest.test_case "add and weight" `Quick test_add_and_weight;
    Alcotest.test_case "self edge ignored" `Quick test_self_edge_ignored;
    Alcotest.test_case "set_edge" `Quick test_set_edge;
    Alcotest.test_case "neighbors no duplicates" `Quick test_neighbors_no_duplicates;
    Alcotest.test_case "nodes and edges" `Quick test_nodes_edges;
    Alcotest.test_case "mem_edge" `Quick test_mem_edge;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "map_weights" `Quick test_map_weights;
    Alcotest.test_case "filter_nodes" `Quick test_filter_nodes;
    Alcotest.test_case "id range check" `Quick test_id_range_check;
    QCheck_alcotest.to_alcotest prop_weight_symmetric;
    QCheck_alcotest.to_alcotest prop_counts_match_add_edge;
    Alcotest.test_case "Counts id range and snapshots" `Quick
      test_counts_id_range_and_snapshots;
  ]
