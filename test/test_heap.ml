module Heap = Trg_util.Heap

(* Pops every entry, returning [(prio, payload)] in pop order. *)
let drain h =
  let out = ref [] in
  while not (Heap.is_empty h) do
    out := (Heap.max_prio h, Heap.max_payload h) :: !out;
    Heap.drop_max h
  done;
  List.rev !out

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "no max" true (raises_invalid (fun () -> Heap.max_prio h));
  Alcotest.(check bool) "no drop" true (raises_invalid (fun () -> Heap.drop_max h))

let test_max_order () =
  let h = Heap.create () in
  List.iter (fun (w, x) -> Heap.push h w x) [ (1., 0); (5., 1); (3., 2); (4., 3) ];
  Alcotest.(check (list int)) "descending priorities" [ 1; 3; 2; 0 ]
    (List.map snd (drain h))

let test_tie_break_insertion_order () =
  let h = Heap.create () in
  Heap.push h 2. 10;
  Heap.push h 2. 20;
  Heap.push h 2. 30;
  Alcotest.(check (list int)) "FIFO among ties" [ 10; 20; 30 ] (List.map snd (drain h))

let test_interleaved_push_pop () =
  let h = Heap.create ~capacity:1 () in
  Heap.push h 1. 1;
  Heap.push h 3. 3;
  Alcotest.(check (float 0.)) "w" 3. (Heap.max_prio h);
  Alcotest.(check int) "x" 3 (Heap.max_payload h);
  Heap.drop_max h;
  Heap.push h 2. 2;
  Alcotest.(check bool) "peek 2" true (Heap.max_prio h = 2. && Heap.max_payload h = 2);
  Alcotest.(check int) "length" 2 (Heap.length h)

(* Equal priorities are frequent, so the reference order is the sort by
   (priority descending, insertion ascending), interleaved with pops. *)
let test_random_against_sort () =
  let rng = Trg_util.Prng.create 99 in
  let h = Heap.create () in
  let items =
    Array.init 500 (fun i -> (Float.of_int (Trg_util.Prng.int rng 20), i))
  in
  Array.iter (fun (w, i) -> Heap.push h w i) items;
  let sorted = Array.copy items in
  Array.stable_sort (fun (a, _) (b, _) -> Float.compare b a) sorted;
  Alcotest.(check bool) "pops in (priority, insertion) order" true
    (drain h = Array.to_list sorted)

let test_iter_entries () =
  let h = Heap.create () in
  List.iter (fun (w, x) -> Heap.push h w x) [ (1., 0); (5., 1); (3., 2) ];
  (* Non-destructive: sees every live entry with its pop tie-breaker. *)
  let seen = ref [] in
  Heap.iter_entries h (fun prio seq x -> seen := (prio, seq, x) :: !seen);
  let sorted = List.sort compare !seen in
  Alcotest.(check int) "all entries visited" 3 (List.length sorted);
  Alcotest.(check bool)
    "prio/payload pairs intact" true
    (List.map (fun (p, _, x) -> (p, x)) sorted = [ (1., 0); (3., 2); (5., 1) ]);
  (* seq is the insertion ordinal. *)
  Alcotest.(check bool) "seqs are insertion ordinals" true
    (List.sort compare (List.map (fun (_, s, x) -> (x, s)) sorted)
    = [ (0, 0); (1, 1); (2, 2) ]);
  Alcotest.(check int) "heap untouched" 3 (Heap.length h);
  Alcotest.(check bool) "max still there" true
    (Heap.max_prio h = 5. && Heap.max_payload h = 1)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "iter_entries is non-destructive" `Quick test_iter_entries;
    Alcotest.test_case "max order" `Quick test_max_order;
    Alcotest.test_case "tie break by insertion" `Quick test_tie_break_insertion_order;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved_push_pop;
    Alcotest.test_case "500 random items vs sort" `Quick test_random_against_sort;
  ]
