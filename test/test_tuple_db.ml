module Tuple_db = Trg_profile.Tuple_db
module Perturb = Trg_profile.Perturb
module Cost = Trg_place.Cost
module Node = Trg_place.Node
module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Prng = Trg_util.Prng

let build ~arity ?max_between refs =
  Tuple_db.build_stream ~arity ~capacity_bytes:65536 ~size_of:(fun _ -> 32)
    ?max_between (fun emit -> List.iter emit refs)

let test_arity_validation () =
  Alcotest.(check bool) "zero arity rejected" true
    (try
       ignore (Tuple_db.create ~arity:0);
       false
     with Invalid_argument _ -> true)

let test_add_and_count () =
  let db = Tuple_db.create ~arity:3 in
  Tuple_db.add db ~p:9 ~ids:[ 3; 1; 2 ] 2.;
  Tuple_db.add db ~p:9 ~ids:[ 2; 3; 1 ] 1.;
  Alcotest.(check (float 1e-9)) "accumulated, unordered" 3.
    (Tuple_db.count db ~p:9 ~ids:[ 1; 2; 3 ]);
  Alcotest.(check (float 1e-9)) "absent" 0. (Tuple_db.count db ~p:9 ~ids:[ 1; 2; 4 ])

let test_add_validation () =
  let db = Tuple_db.create ~arity:2 in
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "wrong size" true (bad (fun () -> Tuple_db.add db ~p:1 ~ids:[ 2 ] 1.));
  Alcotest.(check bool) "duplicate ids" true
    (bad (fun () -> Tuple_db.add db ~p:1 ~ids:[ 2; 2 ] 1.));
  Alcotest.(check bool) "member equals p" true
    (bad (fun () -> Tuple_db.add db ~p:1 ~ids:[ 1; 2 ] 1.))

let test_build_arity2_matches_pair_db () =
  (* On the same stream, the arity-2 tuple database and Pair_db agree. *)
  let refs = [ 1; 2; 3; 4; 1; 3; 2; 1 ] in
  let tuples = (build ~arity:2 ~max_between:64 refs).Tuple_db.db in
  let pairs =
    (Trg_profile.Pair_db.build_stream ~capacity_bytes:65536
       ~size_of:(fun _ -> 32) ~max_between:64 (fun emit -> List.iter emit refs))
      .Trg_profile.Pair_db.db
  in
  Alcotest.(check int) "same entry count" (Trg_profile.Pair_db.n_entries pairs)
    (Tuple_db.n_entries tuples);
  Trg_profile.Pair_db.iter pairs (fun p r s w ->
      Alcotest.(check (float 1e-9)) "same weight" w
        (Tuple_db.count tuples ~p ~ids:[ r; s ]))

let test_build_arity3 () =
  (* 1 [2 3 4 5] 1: C(4,3) = 4 triples recorded for p=1. *)
  let b = build ~arity:3 [ 1; 2; 3; 4; 5; 1 ] in
  Alcotest.(check int) "four triples" 4 (Tuple_db.n_entries b.Tuple_db.db);
  Alcotest.(check (float 1e-9)) "one of them" 1.
    (Tuple_db.count b.Tuple_db.db ~p:1 ~ids:[ 2; 3; 4 ])

let test_build_insufficient_interveners () =
  (* Two interveners cannot form a triple. *)
  let b = build ~arity:3 [ 1; 2; 3; 1 ] in
  Alcotest.(check int) "no triples" 0 (Tuple_db.n_entries b.Tuple_db.db)

let test_max_between_truncates () =
  let full = build ~arity:2 ~max_between:64 [ 1; 2; 3; 4; 5; 1 ] in
  let cut = build ~arity:2 ~max_between:2 [ 1; 2; 3; 4; 5; 1 ] in
  Alcotest.(check int) "C(4,2)=6" 6 (Tuple_db.n_entries full.Tuple_db.db);
  Alcotest.(check int) "C(2,2)=1" 1 (Tuple_db.n_entries cut.Tuple_db.db);
  Alcotest.(check (float 1e-9)) "keeps the most recent" 1.
    (Tuple_db.count cut.Tuple_db.db ~p:1 ~ids:[ 4; 5 ])

let test_perturb_tuple_db () =
  let db = Tuple_db.create ~arity:3 in
  Tuple_db.add db ~p:1 ~ids:[ 2; 3; 4 ] 10.;
  let db' = Perturb.tuple_db (Prng.create 3) ~s:0.1 db in
  let w = Tuple_db.count db' ~p:1 ~ids:[ 2; 3; 4 ] in
  Alcotest.(check bool) "perturbed" true (w > 0. && w <> 10.);
  let same = Perturb.tuple_db (Prng.create 3) ~s:0. db in
  Alcotest.(check (float 1e-9)) "s=0 identity" 10.
    (Tuple_db.count same ~p:1 ~ids:[ 2; 3; 4 ])

(* Cost model: three single-chunk procs in n1 at set 0, one proc in n2.
   D(p3, {p0, p1, p2}) charges exactly the offset aligning p3 with them. *)
let test_cost_sa_tuples () =
  let program = Program.of_sizes [| 32; 32; 32; 32 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  let db = Tuple_db.create ~arity:3 in
  Tuple_db.add db ~p:3 ~ids:[ 0; 1; 2 ] 7.;
  let n1 =
    Node.union ~shift:0 ~modulo:4
      (Node.union ~shift:0 ~modulo:4 (Node.singleton 0) (Node.singleton 1))
      (Node.singleton 2)
  in
  let cost =
    Cost.offsets_cost
      (Cost.prepare (Cost.Sa_tuples { chunks; db }) program ~line_size:32 ~n_sets:4)
      ~n1 ~n2:(Node.singleton 3)
  in
  Alcotest.(check (float 1e-9)) "offset 0 charged" 7. cost.(0);
  Alcotest.(check (float 1e-9)) "offset 1 free" 0. cost.(1);
  (* If one tuple member moves to a different set, no offset is charged. *)
  let n1' =
    Node.union ~shift:1 ~modulo:4
      (Node.union ~shift:0 ~modulo:4 (Node.singleton 0) (Node.singleton 1))
      (Node.singleton 2)
  in
  let cost' =
    Cost.offsets_cost
      (Cost.prepare (Cost.Sa_tuples { chunks; db }) program ~line_size:32 ~n_sets:4)
      ~n1:n1' ~n2:(Node.singleton 3)
  in
  Alcotest.(check (float 1e-9)) "split tuple never charged" 0.
    (Array.fold_left ( +. ) 0. cost')

let test_cost_blend_normalises () =
  let program = Program.of_sizes [| 32; 32 |] in
  let chunks = Chunk.make ~chunk_size:256 program in
  let trg = Trg_profile.Graph.of_edges [ (0, 1, 1000.) ] in
  let model =
    Cost.Blend [ (Cost.Trg_chunks { chunks; trg }, 1.0) ]
  in
  let cost =
    Cost.offsets_cost (Cost.prepare model program ~line_size:32 ~n_sets:4)
      ~n1:(Node.singleton 0) ~n2:(Node.singleton 1)
  in
  (* Normalised: total mass 1 regardless of the edge weight. *)
  Alcotest.(check (float 1e-9)) "unit mass" 1. (Array.fold_left ( +. ) 0. cost);
  Alcotest.(check bool) "conflict only at offset 0" true
    (cost.(0) = 1. && cost.(1) = 0.)

let test_run_tuples_places_everything () =
  let program = Program.of_sizes [| 64; 64; 64; 64 |] in
  let cache = Trg_cache.Config.make ~size:256 ~line_size:32 ~assoc:2 in
  let config =
    { (Trg_place.Gbsc.default_config ~cache ()) with
      Trg_place.Gbsc.chunk_size = 32;
      min_refs = 1 }
  in
  let ev p = Trg_trace.Event.make ~kind:Trg_trace.Event.Enter ~proc:p ~offset:0 ~len:64 in
  let trace = Trg_trace.Trace.of_list (List.concat (List.init 30 (fun _ -> [ ev 0; ev 1; ev 2; ev 3 ]))) in
  let layout = Trg_place.Gbsc_sa.run_tuples config program trace in
  Alcotest.(check int) "all procs placed" 4
    (Array.length (Trg_program.Layout.order layout))

let suite =
  [
    Alcotest.test_case "arity validation" `Quick test_arity_validation;
    Alcotest.test_case "add and count" `Quick test_add_and_count;
    Alcotest.test_case "add validation" `Quick test_add_validation;
    Alcotest.test_case "arity-2 matches pair db" `Quick test_build_arity2_matches_pair_db;
    Alcotest.test_case "arity-3 build" `Quick test_build_arity3;
    Alcotest.test_case "insufficient interveners" `Quick test_build_insufficient_interveners;
    Alcotest.test_case "max_between truncates" `Quick test_max_between_truncates;
    Alcotest.test_case "perturb tuple db" `Quick test_perturb_tuple_db;
    Alcotest.test_case "cost Sa_tuples" `Quick test_cost_sa_tuples;
    Alcotest.test_case "cost Blend normalises" `Quick test_cost_blend_normalises;
    Alcotest.test_case "run_tuples end to end" `Quick test_run_tuples_places_everything;
  ]
