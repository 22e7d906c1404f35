module Proc = Trg_program.Proc
module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Layout = Trg_program.Layout

let mk sizes = Program.of_sizes (Array.of_list sizes)

let test_proc_validation () =
  Alcotest.check_raises "zero size" (Invalid_argument "Proc.make: size must be positive")
    (fun () -> ignore (Proc.make ~id:0 ~name:"p" ~size:0))

let test_program_dense_ids () =
  Alcotest.(check bool) "bad id rejected" true
    (try
       ignore
         (Program.make
            [| Proc.make ~id:1 ~name:"a" ~size:4; Proc.make ~id:0 ~name:"b" ~size:4 |]);
       false
     with Invalid_argument _ -> true)

let test_program_duplicate_names () =
  Alcotest.(check bool) "dup name rejected" true
    (try
       ignore
         (Program.make
            [| Proc.make ~id:0 ~name:"a" ~size:4; Proc.make ~id:1 ~name:"a" ~size:4 |]);
       false
     with Invalid_argument _ -> true)

let test_program_accessors () =
  let p = mk [ 100; 200; 300 ] in
  Alcotest.(check int) "n_procs" 3 (Program.n_procs p);
  Alcotest.(check int) "size" 200 (Program.size p 1);
  Alcotest.(check int) "total" 600 (Program.total_size p);
  Alcotest.(check string) "name" "p2" (Program.name p 2);
  Alcotest.(check (option int)) "find" (Some 1) (Program.find_by_name p "p1");
  Alcotest.(check (option int)) "find missing" None (Program.find_by_name p "zzz")

let test_chunk_counts () =
  let p = mk [ 256; 257; 100; 512 ] in
  let c = Chunk.make ~chunk_size:256 p in
  Alcotest.(check int) "total" (1 + 2 + 1 + 2) (Chunk.total c);
  Alcotest.(check int) "proc0 chunks" 1 (Chunk.n_chunks c 0);
  Alcotest.(check int) "proc1 chunks" 2 (Chunk.n_chunks c 1);
  Alcotest.(check int) "first of proc3" 4 (Chunk.first c 3)

let test_chunk_of_offset () =
  let p = mk [ 256; 600 ] in
  let c = Chunk.make ~chunk_size:256 p in
  Alcotest.(check int) "p0 off0" 0 (Chunk.of_offset c ~proc:0 ~offset:0);
  Alcotest.(check int) "p1 off0" 1 (Chunk.of_offset c ~proc:1 ~offset:0);
  Alcotest.(check int) "p1 off255" 1 (Chunk.of_offset c ~proc:1 ~offset:255);
  Alcotest.(check int) "p1 off256" 2 (Chunk.of_offset c ~proc:1 ~offset:256);
  Alcotest.(check int) "p1 off599" 3 (Chunk.of_offset c ~proc:1 ~offset:599)

let test_chunk_owner_and_size () =
  let p = mk [ 256; 600 ] in
  let c = Chunk.make ~chunk_size:256 p in
  Alcotest.(check int) "owner of 3" 1 (Chunk.owner c 3);
  Alcotest.(check int) "index of 3" 2 (Chunk.index_in_proc c 3);
  Alcotest.(check int) "full chunk" 256 (Chunk.size_of c 2);
  Alcotest.(check int) "tail chunk" 88 (Chunk.size_of c 3)

let test_chunk_iter_range () =
  let p = mk [ 1024 ] in
  let c = Chunk.make ~chunk_size:256 p in
  let seen = ref [] in
  Chunk.iter_range c ~proc:0 ~offset:200 ~len:400 (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "chunks 0..2" [ 0; 1; 2 ] (List.rev !seen);
  seen := [];
  Chunk.iter_range c ~proc:0 ~offset:0 ~len:0 (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "empty range" [] !seen

let test_layout_default () =
  let p = mk [ 100; 50; 60 ] in
  let l = Layout.default p in
  Alcotest.(check int) "p0 at 0" 0 (Layout.address l 0);
  Alcotest.(check int) "p1 aligned" 100 (Layout.address l 1);
  Alcotest.(check int) "p2 after p1" 152 (Layout.address l 2);
  Alcotest.(check int) "span" 212 (Layout.span l)

let test_layout_overlap_rejected () =
  let p = mk [ 100; 100 ] in
  Alcotest.(check bool) "overlap rejected" true
    (try
       ignore (Layout.of_addresses p [| 0; 50 |]);
       false
     with Invalid_argument _ -> true)

(* Two procedures at one address overlap; the message names the lower id
   first, the order ties take in the address sort. *)
let test_layout_shared_address_message () =
  let p = mk [ 10; 20; 30 ] in
  match Layout.of_addresses p [| 100; 0; 100 |] with
  | _ -> Alcotest.fail "a shared address was accepted"
  | exception Invalid_argument m ->
    Alcotest.(check string) "message" "Layout: procs 0 and 2 overlap (100 < 110)" m

let test_layout_contiguous_order () =
  let p = mk [ 32; 64; 96 ] in
  let l = Layout.contiguous p [| 2; 0; 1 |] in
  Alcotest.(check int) "p2 first" 0 (Layout.address l 2);
  Alcotest.(check int) "p0 second" 96 (Layout.address l 0);
  Alcotest.(check int) "p1 third" 128 (Layout.address l 1);
  Alcotest.(check (array int)) "order" [| 2; 0; 1 |] (Layout.order l)

let test_layout_padded () =
  let p = mk [ 32; 32 ] in
  let l = Layout.padded ~pad:32 p [| 0; 1 |] in
  Alcotest.(check int) "pad shifts p1" 64 (Layout.address l 1);
  Alcotest.(check int) "gap bytes" 32 (Layout.gap_bytes l p)

let test_layout_bad_order () =
  let p = mk [ 32; 32 ] in
  Alcotest.(check bool) "non-permutation rejected" true
    (try
       ignore (Layout.contiguous p [| 0; 0 |]);
       false
     with Invalid_argument _ -> true)

let test_cache_line_of () =
  let p = mk [ 64; 64 ] in
  let l = Layout.of_addresses p [| 0; 96 |] in
  Alcotest.(check int) "line of p1" 3 (Layout.cache_line_of l ~line_size:32 ~n_lines:256 1);
  let l2 = Layout.of_addresses p [| 0; 8192 + 32 |] in
  Alcotest.(check int) "wraps" 1 (Layout.cache_line_of l2 ~line_size:32 ~n_lines:256 1)

(* Property: contiguous layouts from arbitrary size lists are always valid
   and preserve span >= total size. *)
let prop_contiguous_valid =
  QCheck.Test.make ~name:"contiguous layout valid for random programs" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 1 5000))
    (fun sizes ->
      QCheck.assume (sizes <> []);
      let p = mk sizes in
      let rng = Trg_util.Prng.create 5 in
      let l = Layout.random rng p in
      Layout.span l >= Program.total_size p
      && Array.length (Layout.order l) = Program.n_procs p)

let prop_chunk_roundtrip =
  QCheck.Test.make ~name:"chunk owner/index roundtrip" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 4000))
    (fun sizes ->
      QCheck.assume (sizes <> []);
      let p = mk sizes in
      let c = Chunk.make ~chunk_size:256 p in
      let ok = ref true in
      for g = 0 to Chunk.total c - 1 do
        let owner = Chunk.owner c g in
        let idx = Chunk.index_in_proc c g in
        if Chunk.first c owner + idx <> g then ok := false;
        if Chunk.size_of c g <= 0 || Chunk.size_of c g > 256 then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "proc validation" `Quick test_proc_validation;
    Alcotest.test_case "program dense ids" `Quick test_program_dense_ids;
    Alcotest.test_case "program duplicate names" `Quick test_program_duplicate_names;
    Alcotest.test_case "program accessors" `Quick test_program_accessors;
    Alcotest.test_case "chunk counts" `Quick test_chunk_counts;
    Alcotest.test_case "chunk of_offset" `Quick test_chunk_of_offset;
    Alcotest.test_case "chunk owner and size" `Quick test_chunk_owner_and_size;
    Alcotest.test_case "chunk iter_range" `Quick test_chunk_iter_range;
    Alcotest.test_case "layout default" `Quick test_layout_default;
    Alcotest.test_case "layout overlap rejected" `Quick test_layout_overlap_rejected;
    Alcotest.test_case "layout shared address message" `Quick
      test_layout_shared_address_message;
    Alcotest.test_case "layout contiguous order" `Quick test_layout_contiguous_order;
    Alcotest.test_case "layout padded" `Quick test_layout_padded;
    Alcotest.test_case "layout bad order" `Quick test_layout_bad_order;
    Alcotest.test_case "cache_line_of" `Quick test_cache_line_of;
    QCheck_alcotest.to_alcotest prop_contiguous_valid;
    QCheck_alcotest.to_alcotest prop_chunk_roundtrip;
  ]
