module Event = Trg_trace.Event
module Trace = Trg_trace.Trace
module Io = Trg_trace.Io
module Tstats = Trg_trace.Tstats

let ev kind proc offset len = Event.make ~kind ~proc ~offset ~len

let test_pack_roundtrip () =
  let cases =
    [
      ev Event.Enter 0 0 1;
      ev Event.Resume 16383 ((1 lsl 24) - 1) 1;
      ev Event.Run 42 12345 ((1 lsl 22));
      ev Event.Enter 100 256 32;
    ]
  in
  List.iter
    (fun e ->
      let e' = Event.unpack (Event.pack e) in
      Alcotest.(check bool) "roundtrip" true (e = e'))
    cases

let test_make_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "neg proc" true (bad (fun () -> ev Event.Run (-1) 0 1));
  Alcotest.(check bool) "zero len" true (bad (fun () -> ev Event.Run 0 0 0));
  Alcotest.(check bool) "huge proc" true (bad (fun () -> ev Event.Run (1 lsl 14) 0 1));
  Alcotest.(check bool) "huge offset" true (bad (fun () -> ev Event.Run 0 (1 lsl 24) 1))

let test_kind_chars () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "char roundtrip" true
        (Event.kind_of_char (Event.kind_to_char k) = k))
    [ Event.Enter; Event.Resume; Event.Run ]

let test_is_transition () =
  Alcotest.(check bool) "enter" true (Event.is_transition (ev Event.Enter 0 0 1));
  Alcotest.(check bool) "resume" true (Event.is_transition (ev Event.Resume 0 0 1));
  Alcotest.(check bool) "run" false (Event.is_transition (ev Event.Run 0 0 1))

let sample_events =
  [
    ev Event.Enter 0 0 32;
    ev Event.Enter 1 0 16;
    ev Event.Run 1 16 16;
    ev Event.Resume 0 32 32;
    ev Event.Enter 2 0 64;
  ]

let test_trace_of_list () =
  let t = Trace.of_list sample_events in
  Alcotest.(check int) "length" 5 (Trace.length t);
  Alcotest.(check bool) "get 2" true (Trace.get t 2 = ev Event.Run 1 16 16);
  Alcotest.(check bool) "to_list" true (Trace.to_list t = sample_events)

let test_trace_iter_fold () =
  let t = Trace.of_list sample_events in
  let count = ref 0 in
  Trace.iter (fun _ -> incr count) t;
  Alcotest.(check int) "iter count" 5 !count;
  let total = Trace.fold (fun acc (e : Event.t) -> acc + e.len) 0 t in
  Alcotest.(check int) "fold len" 160 total

let test_trace_procs_of () =
  let t = Trace.of_list sample_events in
  Alcotest.(check (list int)) "procs" [ 0; 1; 2 ] (Trace.procs_of t)

let test_trace_sub_concat () =
  let t = Trace.of_list sample_events in
  let a = Trace.sub t ~pos:0 ~len:2 and b = Trace.sub t ~pos:2 ~len:3 in
  let joined = Trace.concat [ a; b ] in
  Alcotest.(check bool) "concat = original" true (Trace.to_list joined = sample_events)

let test_builder () =
  let b = Trace.Builder.create ~capacity:1 () in
  Alcotest.(check (option int)) "empty last" None (Trace.Builder.last_proc b);
  List.iter (Trace.Builder.add b) sample_events;
  Alcotest.(check int) "length" 5 (Trace.Builder.length b);
  Alcotest.(check (option int)) "last proc" (Some 2) (Trace.Builder.last_proc b);
  let t = Trace.Builder.build b in
  Alcotest.(check bool) "built" true (Trace.to_list t = sample_events);
  (* The builder survives build: adding more keeps working. *)
  Trace.Builder.add b (ev Event.Run 2 0 8);
  Alcotest.(check int) "still usable" 6 (Trace.Builder.length b);
  Alcotest.(check int) "frozen unchanged" 5 (Trace.length t)

let test_io_roundtrip () =
  let t = Trace.of_list sample_events in
  let path = Filename.temp_file "trgplace" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save path t;
      let t' = Io.load path in
      Alcotest.(check bool) "io roundtrip" true (Trace.to_list t' = sample_events))

let test_io_rejects_garbage () =
  let path = Filename.temp_file "trgplace" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      Alcotest.(check bool) "garbage rejected" true
        (try
           ignore (Io.load path);
           false
         with Failure _ -> true))

let test_tstats () =
  let t = Trace.of_list sample_events in
  let s = Tstats.compute ~n_procs:3 t in
  Alcotest.(check int) "events" 5 s.Tstats.n_events;
  Alcotest.(check int) "transitions" 4 s.Tstats.n_transitions;
  Alcotest.(check int) "procs referenced" 3 s.Tstats.n_procs_referenced;
  Alcotest.(check int) "enter p1" 1 s.Tstats.enter_counts.(1);
  Alcotest.(check int) "refs p0" 2 s.Tstats.ref_counts.(0);
  Alcotest.(check int) "bytes" 160 s.Tstats.bytes_executed

let prop_pack_roundtrip =
  let gen =
    QCheck.Gen.(
      map
        (fun (k, p, o, l) ->
          let kind = match k with 0 -> Event.Enter | 1 -> Event.Resume | _ -> Event.Run in
          Event.make ~kind ~proc:p ~offset:o ~len:l)
        (quad (int_range 0 2) (int_range 0 16383) (int_range 0 ((1 lsl 24) - 1))
           (int_range 1 (1 lsl 22))))
  in
  QCheck.Test.make ~name:"event pack/unpack roundtrip" ~count:1000
    (QCheck.make gen)
    (fun e -> Event.unpack (Event.pack e) = e)

let suite =
  [
    Alcotest.test_case "pack roundtrip" `Quick test_pack_roundtrip;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "kind chars" `Quick test_kind_chars;
    Alcotest.test_case "is_transition" `Quick test_is_transition;
    Alcotest.test_case "trace of_list/get" `Quick test_trace_of_list;
    Alcotest.test_case "trace iter/fold" `Quick test_trace_iter_fold;
    Alcotest.test_case "trace procs_of" `Quick test_trace_procs_of;
    Alcotest.test_case "trace sub/concat" `Quick test_trace_sub_concat;
    Alcotest.test_case "builder" `Quick test_builder;
    Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip;
    Alcotest.test_case "io rejects garbage" `Quick test_io_rejects_garbage;
    Alcotest.test_case "tstats" `Quick test_tstats;
    QCheck_alcotest.to_alcotest prop_pack_roundtrip;
  ]

let test_io_binary_roundtrip () =
  let t = Trace.of_list sample_events in
  let path = Filename.temp_file "trgplace" ".traceb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_binary path t;
      let t' = Io.load path in
      Alcotest.(check bool) "binary roundtrip via auto-detect" true
        (Trace.to_list t' = sample_events))

let test_io_binary_smaller () =
  let t = Trace.of_list (List.concat (List.init 200 (fun _ -> sample_events))) in
  let p1 = Filename.temp_file "trgplace" ".txt" in
  let p2 = Filename.temp_file "trgplace" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove p1;
      Sys.remove p2)
    (fun () ->
      Io.save p1 t;
      Io.save_binary p2 t;
      Alcotest.(check bool) "binary smaller than text" true
        ((Unix.stat p2).Unix.st_size < (Unix.stat p1).Unix.st_size))

let test_io_binary_truncated () =
  let t = Trace.of_list sample_events in
  let path = Filename.temp_file "trgplace" ".traceb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_binary path t;
      (* Chop the last 4 bytes. *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      Unix.ftruncate fd (size - 4);
      Unix.close fd;
      Alcotest.(check bool) "truncation detected" true
        (try
           ignore (Io.load path);
           false
         with Failure _ -> true))

(* Words ever allocated on the OCaml heap, metered as the perf suite
   meters them. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* The v3 decoder stores each word straight into the trace, whose
   buffer lives off the heap: loading a 200k-event file allocates no
   more than the trace itself (a word per event) plus one 64 KB block.
   Building an [Event.t] per word cost about 20 words an event. *)
let test_io_load_allocation () =
  let n = 200_000 in
  let t =
    Trace.of_events
      (Array.init n (fun i ->
           ev
             (match i mod 3 with 0 -> Event.Enter | 1 -> Event.Resume | _ -> Event.Run)
             (i mod 97) (8 * (i mod 64)) (4 + (i mod 60))))
  in
  let path = Filename.temp_file "trgplace" ".ftrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_flat path t;
      let before = allocated_words () in
      let loaded = Io.load path in
      let words = allocated_words () -. before in
      Alcotest.(check bool) "same trace" true (loaded = t);
      let budget = float_of_int (n + (65536 / 8)) in
      if words > budget then
        Alcotest.failf "Io.load of %d events allocated %.0f words (budget %.0f)" n
          words budget)

let suite =
  suite
  @ [
      Alcotest.test_case "io binary roundtrip" `Quick test_io_binary_roundtrip;
      Alcotest.test_case "io binary smaller" `Quick test_io_binary_smaller;
      Alcotest.test_case "io binary truncated" `Quick test_io_binary_truncated;
      Alcotest.test_case "io v3 load allocation bound" `Quick test_io_load_allocation;
    ]
