(* Telemetry subsystem: JSON codec, metric semantics, span nesting and
   allocation accounting, manifest structure, and the integration with the
   failure-isolating batch runner. *)

module Json = Trg_obs.Json
module Metrics = Trg_obs.Metrics
module Span = Trg_obs.Span
module Manifest = Trg_obs.Manifest
module Perf = Trg_obs.Perf
module Fault = Trg_util.Fault
module Report = Trg_eval.Report
module Runner = Trg_eval.Runner
module Perfrun = Trg_eval.Perfrun
module Journal = Trg_obs.Journal

(* --- JSON ------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ( "values",
          Json.List
            [
              Json.Int (-3);
              Json.Float 2.5;
              Json.String "quote \" backslash \\ newline \n tab \t";
              Json.Bool true;
              Json.Bool false;
              Json.Null;
            ] );
        ("nested", Json.Obj [ ("k", Json.List [ Json.Obj [ ("n", Json.Int 1) ] ]) ]);
      ]
  in
  (match Json.of_string (Json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "compact roundtrip" true (parsed = doc)
  | Error msg -> Alcotest.fail msg);
  match Json.of_string (Json.to_string ~indent:2 doc) with
  | Ok parsed -> Alcotest.(check bool) "pretty roundtrip" true (parsed = doc)
  | Error msg -> Alcotest.fail msg

let test_json_numbers () =
  (match Json.of_string "[0, -12, 3.5, 1e3, 2.5e-1]" with
  | Ok (Json.List [ Json.Int 0; Json.Int (-12); Json.Float 3.5; Json.Float 1000.; Json.Float 0.25 ]) ->
    ()
  | Ok other -> Alcotest.failf "unexpected parse: %s" (Json.to_string other)
  | Error msg -> Alcotest.fail msg);
  (* Integral floats print with a trailing ".0" and parse back as floats,
     so counter-vs-gauge distinctions survive a roundtrip. *)
  Alcotest.(check string) "integral float" "[1.0]" (Json.to_string (Json.List [ Json.Float 1. ]))

let test_json_errors () =
  let expect_error s =
    match Json.of_string s with
    | Ok v -> Alcotest.failf "parsed %S as %s" s (Json.to_string v)
    | Error _ -> ()
  in
  List.iter expect_error
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2"; "{\"a\":}" ]

let test_json_accessors () =
  let doc = Json.Obj [ ("a", Json.Int 3); ("b", Json.Float 1.5) ] in
  Alcotest.(check (option int)) "member+to_int" (Some 3) (Option.bind (Json.member "a" doc) Json.to_int);
  Alcotest.(check (option (float 1e-9))) "int as float" (Some 3.) (Option.bind (Json.member "a" doc) Json.to_float);
  Alcotest.(check (option int)) "float not int" None (Option.bind (Json.member "b" doc) Json.to_int);
  Alcotest.(check (option int)) "missing member" None (Option.bind (Json.member "c" doc) Json.to_int)

(* --- metrics --------------------------------------------------------- *)

let test_counter_semantics () =
  let c = Metrics.counter "t.sem/counter" in
  let base = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" (base + 42) (Metrics.value c);
  let c' = Metrics.counter "t.sem/counter" in
  Metrics.incr c';
  Alcotest.(check int) "registration is idempotent" (base + 43) (Metrics.value c)

let test_gauge_semantics () =
  let g = Metrics.gauge "t.sem/gauge" in
  Metrics.set_gauge g 2.0;
  Metrics.max_gauge g 1.0;
  Alcotest.(check (float 1e-9)) "max keeps larger" 2.0 (Metrics.gauge_value g);
  Metrics.max_gauge g 5.0;
  Alcotest.(check (float 1e-9)) "max advances" 5.0 (Metrics.gauge_value g);
  Metrics.set_gauge g 0.5;
  Alcotest.(check (float 1e-9)) "set overwrites" 0.5 (Metrics.gauge_value g)

let test_histogram_semantics () =
  let h = Metrics.histogram ~limits:[| 1.; 10.; 100. |] "t.sem/hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.; 7.; 10.; 99.; 100.; 101.; 1e9 ];
  Alcotest.(check (array int)) "bucket occupancy" [| 2; 2; 2; 2 |] (Metrics.histogram_counts h);
  Alcotest.(check int) "total" 8 (Metrics.histogram_total h)

let test_metric_kind_clash () =
  ignore (Metrics.counter "t.sem/clash");
  (match Metrics.gauge "t.sem/clash" with
  | (_ : Metrics.gauge) -> Alcotest.fail "gauge on a counter name succeeded"
  | exception Invalid_argument _ -> ());
  match Metrics.histogram "t.sem/clash" with
  | (_ : Metrics.histogram) -> Alcotest.fail "histogram on a counter name succeeded"
  | exception Invalid_argument _ -> ()

let test_metrics_clear () =
  let c = Metrics.counter "t.sem/clearable" in
  Metrics.add c 7;
  Metrics.clear ();
  Alcotest.(check int) "cleared to zero" 0 (Metrics.value c);
  Metrics.incr c;
  Alcotest.(check int) "handle survives clear" 1 (Metrics.value c)

(* Prefix-scoped snapshots are deterministic byte-for-byte: sorted names,
   stable float rendering.  Scoping to a test-owned prefix keeps the golden
   string independent of whatever the instrumented libraries counted. *)
let test_snapshot_golden () =
  Metrics.clear ();
  Metrics.add (Metrics.counter "t.golden/beta") 40;
  Metrics.add (Metrics.counter "t.golden/alpha") 3;
  Metrics.set_gauge (Metrics.gauge "t.golden/gamma") 2.5;
  let h = Metrics.histogram ~limits:[| 1.; 10. |] "t.golden/hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 100. ];
  Alcotest.(check string) "golden snapshot"
    ("{\"counters\":{\"t.golden/alpha\":3,\"t.golden/beta\":40},"
   ^ "\"gauges\":{\"t.golden/gamma\":2.5},"
   ^ "\"histograms\":{\"t.golden/hist\":"
   ^ "{\"limits\":[1.0,10.0],\"counts\":[1,1,1],\"total\":3}}}")
    (Json.to_string (Metrics.to_json ~prefix:"t.golden/" ()))

(* --- spans ----------------------------------------------------------- *)

let with_spans f =
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      Span.set_enabled true;
      Span.reset ();
      f ())

let test_span_disabled_is_transparent () =
  Span.set_enabled false;
  Span.reset ();
  Alcotest.(check int) "result passes through" 7 (Span.with_ "ghost" (fun () -> 7));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.records ()))

let test_span_nesting_and_order () =
  with_spans (fun () ->
      let v =
        Span.with_ "a" (fun () ->
            let x = Span.with_ "b" (fun () -> 1) in
            let y = Span.with_ "c" (fun () -> 2) in
            x + y)
      in
      Alcotest.(check int) "value" 3 v;
      match Span.records () with
      | [ b; c; a ] ->
        Alcotest.(check string) "inner completes first" "b" b.Span.name;
        Alcotest.(check string) "then sibling" "c" c.Span.name;
        Alcotest.(check string) "parent completes last" "a" a.Span.name;
        Alcotest.(check string) "nested path" "a/b" b.Span.path;
        Alcotest.(check string) "sibling path" "a/c" c.Span.path;
        Alcotest.(check string) "root path" "a" a.Span.path;
        Alcotest.(check int) "child depth" 1 b.Span.depth;
        Alcotest.(check int) "root depth" 0 a.Span.depth;
        List.iter
          (fun r ->
            Alcotest.(check bool)
              (r.Span.name ^ " finished") true
              (r.Span.outcome = Span.Finished))
          [ b; c; a ]
      | records -> Alcotest.failf "expected 4 records, got %d" (List.length records))

let test_span_failure_outcome () =
  with_spans (fun () ->
      (match Span.with_ "outer" (fun () -> Span.with_ "boom" (fun () -> failwith "kaput")) with
      | (_ : int) -> Alcotest.fail "exception swallowed"
      | exception Failure msg -> Alcotest.(check string) "exception intact" "kaput" msg);
      match Span.records () with
      | [ boom; outer ] ->
        Alcotest.(check bool) "inner failed" true (boom.Span.outcome = Span.Failed);
        Alcotest.(check string) "inner path" "outer/boom" boom.Span.path;
        Alcotest.(check bool) "outer failed too" true (outer.Span.outcome = Span.Failed)
      | records -> Alcotest.failf "expected 2 records, got %d" (List.length records))

let test_span_alloc_monotone () =
  with_spans (fun () ->
      (* Minor-heap allocation: [Gc.quick_stat] reads the young pointer, so
         small blocks show up immediately (a single large array would sit in
         the major heap uncounted until the next slice). *)
      let sink = ref [] in
      ignore
        (Span.with_ "outer" (fun () ->
             ignore
               (Span.with_ "inner" (fun () ->
                    sink := List.init 20_000 (fun i -> float_of_int i +. 0.5)));
             Sys.opaque_identity !sink));
      match Span.records () with
      | [ inner; outer ] ->
        Alcotest.(check bool) "inner allocated its list" true
          (inner.Span.alloc_words >= 50_000.);
        Alcotest.(check bool) "parent includes child allocation" true
          (outer.Span.alloc_words >= inner.Span.alloc_words);
        Alcotest.(check bool) "wall times non-negative" true
          (inner.Span.wall_s >= 0. && outer.Span.wall_s >= 0.
          && outer.Span.wall_s >= inner.Span.wall_s)
      | records -> Alcotest.failf "expected 2 records, got %d" (List.length records))

(* A span's meter must charge it its own words, as the ledger's does its
   units': a span reads the same [alloc_words] alone as after a span that
   builds a large array in the major heap and one that leaves a list live
   in the minor heap, whose words an unsettled meter would count late
   (the unit's own minor collections promote the list). *)
let test_span_meter_settled () =
  with_spans (fun () ->
      let unit_ () =
        ignore (Sys.opaque_identity (Array.to_list (Array.init 100_000 Fun.id)))
      in
      let big () = ignore (Sys.opaque_identity (Array.make 1_000_000 0)) in
      let kept = ref [] in
      let live () = kept := List.init 50_000 Fun.id in
      Span.with_ "unit" unit_;
      Span.with_ "big" big;
      Span.with_ "live" live;
      Span.with_ "unit" unit_;
      ignore (Sys.opaque_identity !kept);
      match Span.records () with
      | [ alone; _; _; after ] ->
        Alcotest.(check (float 0.))
          "same words alone and after a major-heap span" alone.Span.alloc_words
          after.Span.alloc_words
      | records -> Alcotest.failf "expected 4 records, got %d" (List.length records))

(* --- manifests ------------------------------------------------------- *)

let test_manifest_roundtrip () =
  with_spans (fun () ->
      ignore (Span.with_ "unit" (fun () -> ()));
      let manifest =
        Manifest.build ~command:"unit-test" ~argv:[ "trgplace"; "unit-test" ]
          ~config:[ ("quick", Json.Bool true) ]
          ~status:Manifest.Ok ~exit_code:0 ()
      in
      (match Manifest.validate manifest with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let path = Filename.temp_file "trgplace_manifest" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Manifest.write path manifest;
          match Manifest.load path with
          | Error msg -> Alcotest.fail msg
          | Ok loaded ->
            Alcotest.(check bool) "disk roundtrip" true (loaded = manifest);
            Alcotest.(check (option string)) "command" (Some "unit-test")
              (Option.bind (Json.member "command" loaded) Json.to_string_opt);
            Alcotest.(check bool) "peak heap recorded" true
              (match
                 Option.bind (Json.member "gc" loaded) (Json.member "top_heap_words")
                 |> Fun.flip Option.bind Json.to_int
               with
              | Some words -> words > 0
              | None -> false)))

let test_manifest_validate_rejects () =
  let reject label json =
    match Manifest.validate json with
    | Ok () -> Alcotest.failf "%s: validated" label
    | Error _ -> ()
  in
  reject "not an object" (Json.Int 3);
  reject "missing schema" (Json.Obj [ ("command", Json.String "x") ]);
  reject "wrong schema"
    (Json.Obj [ ("schema", Json.String "trgplace-manifest/999") ]);
  match
    Manifest.validate
      (Manifest.build ~command:"x" ~status:Manifest.Failed ~exit_code:1 ())
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Schema evolution: current manifests carry the v2 marker, but v1
   manifests written by older builds must keep validating, and the
   optional explain member must be an object when present. *)
let test_manifest_schema_versions () =
  let current = Manifest.build ~command:"x" ~status:Manifest.Ok ~exit_code:0 () in
  Alcotest.(check (option string)) "current schema is v2"
    (Some Manifest.schema)
    (Option.bind (Json.member "schema" current) Json.to_string_opt);
  let as_v1 =
    match current with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "schema", _ -> ("schema", Json.String Manifest.v1_schema)
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "manifest is not an object"
  in
  (match Manifest.validate as_v1 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "v1 manifest rejected: %s" msg);
  let explained =
    Manifest.build ~command:"x"
      ~explain:(Json.Obj [ ("layouts", Json.List []) ])
      ~status:Manifest.Ok ~exit_code:0 ()
  in
  (match Manifest.validate explained with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "explain member rejected: %s" msg);
  match
    Manifest.validate
      (match explained with
      | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "explain", _ -> ("explain", Json.Int 3)
               | kv -> kv)
             fields)
      | _ -> Alcotest.fail "manifest is not an object")
  with
  | Ok () -> Alcotest.fail "non-object explain validated"
  | Error _ -> ()

(* --- regression diffing ---------------------------------------------- *)

let manifest_with ?(counters = []) ?(gauges = []) ?(totals = []) () =
  Json.Obj
    [
      ("schema", Json.String Manifest.schema);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Obj [ ("total", Json.Int v) ]))
             totals) );
      (* Non-deterministic members that diff must ignore. *)
      ("gc", Json.Obj [ ("minor_words", Json.Float 1e9) ]);
      ("spans", Json.List [ Json.Obj [ ("wall_s", Json.Float 99.) ] ]);
    ]

(* The [--only] rule of [compare] and [stats]: a prefix of the full
   "kind/name" metric, or of the name after the kind. *)
let test_manifest_selected () =
  let sel only m = Manifest.selected ~only m in
  Alcotest.(check bool) "no prefix selects all" true (sel [] "counters/sim/misses");
  Alcotest.(check bool) "full-name prefix" true (sel [ "counters/sim/" ] "counters/sim/misses");
  Alcotest.(check bool) "name prefix after the kind" true (sel [ "sim/" ] "counters/sim/misses");
  Alcotest.(check bool) "any of several prefixes" true
    (sel [ "attrib/"; "sim/" ] "gauges/sim/peak");
  Alcotest.(check bool) "other kind's full name" false (sel [ "gauges/" ] "counters/sim/misses");
  Alcotest.(check bool) "mid-name substring" false (sel [ "misses" ] "counters/sim/misses");
  Alcotest.(check bool) "no kind segment" true (sel [ "sim" ] "sim")

let test_manifest_diff () =
  let base =
    manifest_with
      ~counters:[ ("sim/misses", 100); ("gone", 1) ]
      ~gauges:[ ("peak", 2.0) ] ~totals:[ ("lat", 50) ] ()
  in
  let same =
    manifest_with
      ~counters:[ ("sim/misses", 100); ("gone", 1) ]
      ~gauges:[ ("peak", 2.0) ] ~totals:[ ("lat", 50) ] ()
  in
  Alcotest.(check int) "identical manifests do not drift" 0
    (List.length (Manifest.diff base same));
  let current =
    manifest_with
      ~counters:[ ("sim/misses", 103); ("fresh", 7) ]
      ~gauges:[ ("peak", 2.0) ] ~totals:[ ("lat", 50) ] ()
  in
  let drifts = Manifest.diff base current in
  let metrics = List.map (fun d -> d.Manifest.metric) drifts in
  Alcotest.(check (list string)) "drifted metrics, sorted"
    [ "counters/fresh"; "counters/gone"; "counters/sim/misses" ] metrics;
  let by_name n = List.find (fun d -> d.Manifest.metric = n) drifts in
  Alcotest.(check (float 1e-9)) "relative delta" 0.03
    (by_name "counters/sim/misses").Manifest.rel;
  Alcotest.(check bool) "one-sided metrics are infinite drift" true
    ((by_name "counters/fresh").Manifest.rel = infinity
    && (by_name "counters/gone").Manifest.rel = infinity
    && (by_name "counters/fresh").Manifest.base = None
    && (by_name "counters/gone").Manifest.current = None);
  (* Tolerance suppresses small drift but never one-sided metrics. *)
  let tolerated = Manifest.diff ~tolerance:0.05 base current in
  Alcotest.(check (list string)) "tolerance keeps only one-sided"
    [ "counters/fresh"; "counters/gone" ]
    (List.map (fun d -> d.Manifest.metric) tolerated);
  (* GC and span noise alone never drifts. *)
  Alcotest.(check int) "noise-only manifests agree" 0
    (List.length (Manifest.diff (manifest_with ()) (manifest_with ())))

(* --- Chrome trace export --------------------------------------------- *)

let test_chrome_trace_export () =
  with_spans (fun () ->
      ignore
        (Span.with_ "outer" (fun () -> Span.with_ "inner" (fun () -> 1 + 1)));
      let records = Span.records () in
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (r.Span.name ^ " has a start offset") true (r.Span.start_s >= 0.))
        records;
      let trace = Span.to_chrome () in
      let all_events =
        match Json.member "traceEvents" trace with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "no traceEvents member"
      in
      (* Besides the complete events, the trace carries "M" metadata
         events naming each lane (here just the main process). *)
      let events =
        List.filter
          (fun e -> Json.member "ph" e = Some (Json.String "X"))
          all_events
      in
      Alcotest.(check int) "one complete event per span" (List.length records)
        (List.length events);
      List.iter
        (fun e ->
          let non_negative k =
            match Option.bind (Json.member k e) Json.to_float with
            | Some x -> x >= 0.
            | None -> false
          in
          Alcotest.(check bool) "ts and dur in microseconds" true
            (non_negative "ts" && non_negative "dur"))
        events;
      (* A parent's [ts, ts+dur] interval must contain its child's. *)
      let find name =
        List.find
          (fun e -> Json.member "name" e = Some (Json.String name))
          events
      in
      let bounds e =
        let f k =
          match Option.bind (Json.member k e) Json.to_float with
          | Some x -> x
          | None -> Alcotest.fail "missing timing field"
        in
        (f "ts", f "ts" +. f "dur")
      in
      let t0_inner, t1_inner = bounds (find "inner") in
      let t0_outer, t1_outer = bounds (find "outer") in
      Alcotest.(check bool) "nesting preserved" true
        (t0_outer <= t0_inner && t1_inner <= t1_outer))

(* A trace with spans injected under worker lanes must render each lane
   as its own Chrome thread: distinct tids, the real pid, and metadata
   events naming every lane. *)
let test_chrome_distinct_lanes () =
  with_spans (fun () ->
      ignore (Span.with_ "main-work" (fun () -> ()));
      let base = Span.records () in
      Span.inject ~lane:1 base;
      Span.inject ~lane:2 base;
      let events =
        match Json.member "traceEvents" (Span.to_chrome ()) with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "no traceEvents member"
      in
      let phase p e = Json.member "ph" e = Some (Json.String p) in
      let int_of k e =
        match Option.bind (Json.member k e) Json.to_int with
        | Some v -> v
        | None -> Alcotest.failf "event without %s" k
      in
      let complete = List.filter (phase "X") events in
      Alcotest.(check (list int)) "one tid per lane, 0 for main" [ 0; 1; 2 ]
        (List.sort_uniq compare (List.map (int_of "tid") complete));
      List.iter
        (fun e ->
          Alcotest.(check int) "real pid" (Unix.getpid ()) (int_of "pid" e))
        complete;
      let lane_names =
        List.filter (phase "M") events
        |> List.filter_map (fun e ->
               Option.bind (Json.member "args" e) (Json.member "name"))
        |> List.filter_map Json.to_string_opt
        |> List.sort compare
      in
      Alcotest.(check (list string)) "metadata names every lane"
        [ "main"; "worker 1"; "worker 2" ] lane_names)

(* --- the performance ledger ------------------------------------------ *)

let stat median mad = { Perf.median; mad }

let perf_record ?(rev = "deadbee") ?(counters = []) benches =
  {
    Perf.rev;
    time_s = 0.;
    config_crc = "00000000";
    reps = 3;
    benches =
      List.sort
        (fun a b -> compare a.Perf.b_name b.Perf.b_name)
        (List.map
           (fun (name, wall) ->
             { Perf.b_name = name; wall_s = wall; alloc_w = stat 1000. 0. })
           benches);
    counters = List.sort compare counters;
  }

let with_temp_ledger f =
  let path = Filename.temp_file "trgplace_ledger" ".jsonl" in
  (* [Perf] treats a missing file as an empty ledger; start from that. *)
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_perf_ledger_roundtrip () =
  with_temp_ledger (fun path ->
      Alcotest.(check bool) "missing file is an empty ledger" true
        (Perf.load path = ([], []));
      let r1 =
        perf_record ~rev:"aaa1111"
          ~counters:[ ("pool/units_ok", 8); ("sim/accesses", 435643) ]
          [ ("small/gbsc-incr", stat 0.5 0.01); ("small/sim-test", stat 0.25 0.) ]
      in
      let r2 = perf_record ~rev:"bbb2222" [ ("small/gbsc-incr", stat 0.5 0.02) ] in
      Perf.append path r1;
      Perf.append path r2;
      let records, skipped = Perf.load path in
      Alcotest.(check int) "no damage" 0 (List.length skipped);
      Alcotest.(check bool) "records roundtrip in file order" true
        (records = [ r1; r2 ]))

let test_perf_ledger_recovery () =
  with_temp_ledger (fun path ->
      let r rev m = perf_record ~rev [ ("u", stat m 0.) ] in
      let r1 = r "aaa0001" 1. and r2 = r "bbb0002" 2. in
      let r3 = r "ccc0003" 3. and r4 = r "ddd0004" 4. in
      (* The line wrapper is [{"crc":"<hex8>",...], so index 8 is the
         first crc hex digit: flipping it keeps the line valid JSON with
         a well-formed but wrong checksum. *)
      let flip_crc line =
        let b = Bytes.of_string line in
        Bytes.set b 8 (if Bytes.get b 8 = '0' then '1' else '0');
        Bytes.to_string b
      in
      let l4 = Perf.line_of_record r4 in
      let oc = open_out path in
      output_string oc (Perf.line_of_record r1 ^ "\n");
      output_string oc (flip_crc (Perf.line_of_record r2) ^ "\n");
      output_string oc (Perf.line_of_record r3 ^ "\n");
      (* A torn final append: half a line, no newline. *)
      output_string oc (String.sub l4 0 (String.length l4 / 2));
      close_out oc;
      let records, skipped = Perf.load path in
      Alcotest.(check bool) "intact records survive around damage" true
        (records = [ r1; r3 ]);
      (match skipped with
      | [
       { Perf.line = 2; fault = Fault.Checksum_mismatch _ };
       { Perf.line = 4; fault = Fault.Truncated _ };
      ] ->
        ()
      | other ->
        Alcotest.failf "unexpected skip list (%d entries)" (List.length other));
      (* Appending after the torn tail must start a fresh line, not glue
         onto the damage. *)
      Perf.append path r4;
      let records, skipped = Perf.load path in
      Alcotest.(check bool) "append after damage recovers" true
        (records = [ r1; r3; r4 ]);
      Alcotest.(check int) "old damage still reported" 2 (List.length skipped))

(* Band arithmetic at the exact edge, with binary-exact constants:
   history wall median 1.0 / MAD 0.25, mad_factor 2, min_band 0.25
   => limit = 1.0 * 1.25 + 2 * 0.25 = 1.75 with no rounding anywhere. *)
let test_perf_gate_band_edge () =
  let history =
    List.map
      (fun rev ->
        perf_record ~rev ~counters:[ ("sim/misses", 100) ]
          [ ("u", stat 1. 0.25) ])
      [ "r1"; "r2"; "r3"; "r4"; "r5" ]
  in
  let gate ?counter_tolerance current =
    Perf.gate ~window:5 ~mad_factor:2. ~min_band:0.25 ?counter_tolerance
      ~history current
  in
  let at m = perf_record ~counters:[ ("sim/misses", 100) ] [ ("u", stat m 0.) ] in
  let wall verdicts =
    List.find
      (fun v -> v.Perf.v_bench = "u" && v.Perf.v_metric = "wall_s")
      verdicts
  in
  let v = gate (at 1.75) in
  let w = wall v in
  Alcotest.(check (float 0.)) "baseline is the window median" 1. w.Perf.v_baseline;
  Alcotest.(check (float 0.)) "limit" 1.75 w.Perf.v_limit;
  Alcotest.(check bool) "at the edge passes" true w.Perf.v_ok;
  Alcotest.(check int) "nothing regressed" 0 (List.length (Perf.regressions v));
  let v = gate (at 1.8125) in
  Alcotest.(check bool) "over the edge fails" false (wall v).Perf.v_ok;
  (match Perf.regressions v with
  | [ reg ] ->
    Alcotest.(check string) "regression names the bench" "u" reg.Perf.v_bench;
    Alcotest.(check string) "and the metric" "wall_s" reg.Perf.v_metric
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* Counters gate exactly by default; a tolerance admits small drift. *)
  let drifted =
    perf_record ~counters:[ ("sim/misses", 101) ] [ ("u", stat 1. 0.) ]
  in
  let counter verdicts =
    List.find (fun v -> v.Perf.v_metric = "counter") verdicts
  in
  Alcotest.(check bool) "counter drift fails at default tolerance" false
    (counter (gate drifted)).Perf.v_ok;
  Alcotest.(check bool) "tolerance admits small counter drift" true
    (counter (gate ~counter_tolerance:0.02 drifted)).Perf.v_ok;
  (* No history, no verdict: a brand-new bench cannot regress. *)
  Alcotest.(check int) "unknown bench is skipped" 0
    (List.length (Perf.gate ~history (perf_record [ ("brand-new", stat 9. 0.) ])))

(* The deterministic counters in a ledger record must not depend on the
   pool's job count — that is what lets the CI gate hold them exactly
   across runner machines. *)
let test_perf_counters_jobs_invariant () =
  let j1 = Perfrun.measure ~reps:1 ~jobs:1 ~rev:"test" ~time_s:0. () in
  let j2 = Perfrun.measure ~reps:1 ~jobs:2 ~rev:"test" ~time_s:0. () in
  Alcotest.(check bool) "counters were captured" true
    (List.length j1.Perf.counters > 0);
  Alcotest.(check bool) "sim work recorded" true
    (List.mem_assoc "sim/accesses" j1.Perf.counters);
  Alcotest.(check bool) "counters are jobs-invariant" true
    (j1.Perf.counters = j2.Perf.counters);
  Alcotest.(check (list string)) "one stat row per unit"
    (List.sort compare (Perfrun.unit_names ()))
    (List.map (fun b -> b.Perf.b_name) j1.Perf.benches)

(* The ledger's meter must charge each unit its own words: a unit reads
   the same [alloc_w] measured alone as after a unit that builds a large
   array in the major heap, whose words an unsettled meter would count
   late. *)
let test_perf_meter_settled () =
  let words f =
    let a0 = Perfrun.allocated_words () in
    f ();
    Perfrun.allocated_words () -. a0
  in
  let unit_ () = ignore (Sys.opaque_identity (Array.to_list (Array.init 100_000 Fun.id))) in
  let big () = ignore (Sys.opaque_identity (Array.make 1_000_000 0)) in
  let alone = words unit_ in
  ignore (words big : float);
  let after = words unit_ in
  Alcotest.(check (float 0.)) "same words alone and after a major-heap unit" alone after

(* --- integration with the batch runner ------------------------------- *)

(* A benchmark whose preparation fails (here via --force-fail injection)
   must surface in the manifest as a span with outcome "failed". *)
let test_failed_benchmark_in_manifest () =
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      Span.set_enabled true;
      Span.reset ();
      let options =
        { Report.quick_options with keep_going = true; force_fail = [ "small" ] }
      in
      let failures = Report.table1 options in
      Alcotest.(check int) "one isolated failure" 1 (List.length failures);
      let failed_span =
        List.find_opt
          (fun r -> r.Span.name = "small" && r.Span.outcome = Span.Failed)
          (Span.records ())
      in
      Alcotest.(check bool) "failed span recorded" true (failed_span <> None);
      let manifest =
        Manifest.build ~command:"table1" ~argv:[ "trgplace"; "table1" ]
          ~status:Manifest.Partial ~exit_code:3 ()
      in
      let path = Filename.temp_file "trgplace_manifest" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Manifest.write path manifest;
          let loaded =
            match Manifest.load path with
            | Ok j -> j
            | Error msg -> Alcotest.fail msg
          in
          (match Manifest.validate loaded with
          | Ok () -> ()
          | Error msg -> Alcotest.fail msg);
          Alcotest.(check (option string)) "status" (Some "partial-failure")
            (Option.bind (Json.member "status" loaded) Json.to_string_opt);
          let spans =
            match Option.bind (Json.member "spans" loaded) Json.to_list with
            | Some spans -> spans
            | None -> Alcotest.fail "manifest has no spans"
          in
          let failed_bench s =
            Json.member "name" s = Some (Json.String "small")
            && Json.member "outcome" s = Some (Json.String "failed")
          in
          Alcotest.(check bool) "manifest carries the failed benchmark" true
            (List.exists failed_bench spans)))

(* Each pool unit records one span named by its pool key, so the units
   of a batch are told apart in the manifest.  The prepare span keeps the
   benchmark's name (the test above reads it). *)
let test_unit_spans_named_by_key () =
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      Span.set_enabled true;
      Span.reset ();
      let failures = Report.figure5 Report.quick_options in
      Alcotest.(check int) "no failures" 0 (List.length failures);
      let module F = Trg_eval.Figure5 in
      let expected =
        List.map
          (fun tag -> "figure5 [small] " ^ tag)
          ("default" :: List.map F.algo_name [ F.PH; F.HKC; F.GBSC ])
      in
      let records = Span.records () in
      let units =
        List.filter_map
          (fun r ->
            if String.starts_with ~prefix:"figure5 " r.Span.name then Some r.Span.name
            else None)
          records
      in
      Alcotest.(check (list string)) "one span per unit, named by its key"
        (List.sort compare expected) (List.sort compare units);
      Alcotest.(check int) "no two names the same" (List.length units)
        (List.length (List.sort_uniq compare units));
      Alcotest.(check bool) "prepare span keeps the benchmark's name" true
        (List.exists (fun r -> r.Span.name = "small") records))

(* After a successful quick experiment, the work counters the acceptance
   criteria name (cache-sim misses, GBSC merge steps) must be non-zero. *)
let test_counters_populated_by_run () =
  let misses = Metrics.counter "sim/misses" in
  let merge_steps = Metrics.counter "gbsc/merge_steps" in
  let before_misses = Metrics.value misses in
  let before_merges = Metrics.value merge_steps in
  let failures = Report.table1 Report.quick_options in
  Alcotest.(check int) "clean run" 0 (List.length failures);
  Alcotest.(check bool) "cache-sim misses counted" true
    (Metrics.value misses > before_misses);
  (* Table 1 only characterizes; placement work needs a placement. *)
  let prepared = Runner.prepare (Trg_synth.Bench.find "small") in
  ignore (Trg_place.Gbsc.place (Runner.program prepared) prepared.Runner.prof);
  Alcotest.(check bool) "GBSC merge steps counted" true
    (Metrics.value merge_steps > before_merges)

(* --- the merge-decision journal --------------------------------------- *)

(* Recording is a process-global state machine (like Prof): arm names the
   capture, the first matching begin_run owns it, finish seals and
   disarms, take hands the journal over exactly once. *)
let test_journal_state_machine () =
  Fun.protect ~finally:Journal.reset (fun () ->
      Journal.reset ();
      Alcotest.(check bool) "idle by default" false (Journal.recording ());
      Alcotest.(check bool) "unarmed begin_run refuses" false
        (Journal.begin_run ~algo:"gbsc" ~engine:"incr" ~cache:(8192, 32, 1));
      Journal.arm ~algo:"gbsc" ~source:"small";
      Alcotest.(check bool) "non-matching algo refuses" false
        (Journal.begin_run ~algo:"ph" ~engine:"incr" ~cache:(0, 0, 0));
      Alcotest.(check bool) "matching algo starts the capture" true
        (Journal.begin_run ~algo:"gbsc" ~engine:"incr" ~cache:(8192, 32, 1));
      Alcotest.(check bool) "recording" true (Journal.recording ());
      (* HKC drives GBSC's machinery: an inner begin_run while a capture is
         open must not steal or restart it. *)
      Alcotest.(check bool) "no nested capture" false
        (Journal.begin_run ~algo:"gbsc" ~engine:"incr" ~cache:(8192, 32, 1));
      Journal.record ~u:0 ~v:2 ~weight:10. ~size_u:1 ~size_v:1
        ~runner_up:{ Journal.r_u = 1; r_v = 2; r_weight = 4. }
        ();
      Journal.annotate ~shift:3 ~cost:0.5;
      Journal.record ~u:0 ~v:1 ~weight:4. ~size_u:2 ~size_v:1 ();
      Journal.finish ~layout_crc:0xDEAD;
      Alcotest.(check bool) "finish stops recording" false (Journal.recording ());
      (* A straggler record after the seal must not corrupt the capture. *)
      Journal.record ~u:7 ~v:9 ~weight:1. ~size_u:1 ~size_v:1 ();
      let j =
        match Journal.take () with
        | Some j -> j
        | None -> Alcotest.fail "no journal captured"
      in
      Alcotest.(check bool) "take clears" true (Journal.take () = None);
      Alcotest.(check int) "two decisions" 2 (Array.length j.Journal.decisions);
      let d0 = j.Journal.decisions.(0) and d1 = j.Journal.decisions.(1) in
      Alcotest.(check int) "steps are 0-based ordinals" 0 d0.Journal.step;
      Alcotest.(check bool) "annotate lands on the open decision" true
        (d0.Journal.shift = Some 3 && d0.Journal.shift_cost = Some 0.5);
      Alcotest.(check bool) "later decision untouched by annotate" true
        (d1.Journal.shift = None && d1.Journal.runner_up = None);
      Alcotest.(check int) "layout crc claimed" 0xDEAD
        j.Journal.claims.Journal.layout_crc;
      Alcotest.(check (float 0.)) "total weight is the ordered sum" 14.
        j.Journal.claims.Journal.total_weight;
      Alcotest.(check string) "meta records the matched algo" "gbsc"
        j.Journal.meta.Journal.algo;
      Alcotest.(check string) "meta records the armed source" "small"
        j.Journal.meta.Journal.source;
      (* finish disarmed the journal: the next placement is not captured. *)
      Alcotest.(check bool) "finish disarms" false
        (Journal.begin_run ~algo:"gbsc" ~engine:"incr" ~cache:(8192, 32, 1)))

let test_journal_abort () =
  Fun.protect ~finally:Journal.reset (fun () ->
      Journal.reset ();
      Journal.arm ~algo:"ph" ~source:"small";
      Alcotest.(check bool) "capture starts" true
        (Journal.begin_run ~algo:"ph" ~engine:"incr" ~cache:(0, 0, 0));
      Journal.record ~u:0 ~v:1 ~weight:1. ~size_u:1 ~size_v:1 ();
      Journal.abort ();
      Alcotest.(check bool) "abort stops recording" false (Journal.recording ());
      Alcotest.(check bool) "abort captures nothing" true (Journal.take () = None))

let with_temp_journal f =
  let path = Filename.temp_file "trgplace_journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* A fixture with floats that decimal rendering would mangle: 0.1, 1/3 and
   1/7 have no finite decimal representation, so they only survive the
   file format if weights really are serialized as hex literals. *)
let journal_fixture () =
  let d step d_u d_v weight size_u size_v runner_up shift shift_cost =
    { Journal.step; d_u; d_v; weight; size_u; size_v; runner_up; shift;
      shift_cost }
  in
  let decisions =
    [|
      d 0 0 3 0.1 1 1
        (Some { Journal.r_u = 1; r_v = 2; r_weight = 1. /. 3. })
        (Some 5)
        (Some (1. /. 7.));
      d 1 0 1 (1. /. 3.) 2 1 None None None;
    |]
  in
  {
    Journal.meta =
      { Journal.algo = "gbsc"; source = "small"; engine = "incr";
        cache_size = 8192; cache_line = 32; cache_assoc = 1 };
    decisions;
    claims =
      { Journal.layout_crc = 0x1234ABCD;
        total_weight = Journal.total_weight decisions };
  }

let test_journal_roundtrip () =
  with_temp_journal (fun path ->
      let j = journal_fixture () in
      Journal.save path j;
      let j' = Journal.load path in
      Alcotest.(check bool) "journal roundtrips structurally" true (j' = j);
      Alcotest.(check bool) "awkward floats come back bit-exact" true
        (j'.Journal.decisions.(0).Journal.weight = 0.1
        && j'.Journal.decisions.(1).Journal.weight = 1. /. 3.
        && j'.Journal.decisions.(0).Journal.shift_cost = Some (1. /. 7.)))

(* Every fault class the loader promises, produced by corrupting a real
   save the way each failure would happen in the field. *)
let test_journal_fault_matrix () =
  with_temp_journal (fun path ->
      let j = journal_fixture () in
      Journal.save path j;
      let original =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let write s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      let check_fault label content pred =
        write content;
        match Journal.load_result path with
        | Ok _ -> Alcotest.failf "%s: corrupted journal loaded" label
        | Error e ->
          if not (pred e) then
            Alcotest.failf "%s: unexpected fault %s" label (Fault.to_string e)
      in
      (* Wrong artifact kind: another tool's magic word. *)
      check_fault "bad magic"
        ("trgplace-ledger" ^ String.sub original 16 (String.length original - 16))
        (function Fault.Bad_magic _ -> true | _ -> false);
      (* A future format version this build does not know. *)
      check_fault "unsupported version"
        (let nl = String.index original '\n' in
         "trgplace-journal 9 2" ^ String.sub original nl (String.length original - nl))
        (function Fault.Unsupported_version _ -> true | _ -> false);
      (* One flipped digit in the claims line: still parseable, so only the
         CRC trailer can catch it. *)
      check_fault "checksum mismatch"
        (let rec find k =
           if String.sub original k 7 = "claims " then k + 7 else find (k + 1)
         in
         let i = find 0 in
         let b = Bytes.of_string original in
         Bytes.set b i (if Bytes.get b i = '9' then '8' else '9');
         Bytes.to_string b)
        (function Fault.Checksum_mismatch _ -> true | _ -> false);
      (* A torn write: the trailer line never made it to disk. *)
      check_fault "truncated"
        (let no_nl = String.sub original 0 (String.length original - 1) in
         String.sub original 0 (String.rindex no_nl '\n' + 1))
        (function Fault.Truncated _ -> true | _ -> false);
      (* Structural damage to a record line. *)
      check_fault "bad record"
        (let rec find k =
           if String.sub original k 2 = "d " then k else find (k + 1)
         in
         let i = find 0 in
         let b = Bytes.of_string original in
         Bytes.set b i 'x';
         Bytes.to_string b)
        (function Fault.Bad_record _ -> true | _ -> false);
      (* And the untouched original still loads. *)
      write original;
      match Journal.load_result path with
      | Ok j' -> Alcotest.(check bool) "pristine journal loads" true (j' = j)
      | Error e -> Alcotest.failf "pristine journal rejected: %s" (Fault.to_string e))

(* Manifest schema v3: the optional journal member must be an object when
   present, and v2 manifests (which cannot carry one) must keep
   validating. *)
let test_manifest_journal_member () =
  let rewrite key v = function
    | Json.Obj fields ->
      Json.Obj (List.map (function k, _ when k = key -> (k, v) | kv -> kv) fields)
    | _ -> Alcotest.fail "manifest is not an object"
  in
  let with_journal =
    Manifest.build ~command:"explain"
      ~journal:
        (Json.Obj
           [
             ("schema", Json.String Journal.schema);
             ("path", Json.String "gbsc.journal");
             ("steps", Json.Int 25);
           ])
      ~status:Manifest.Ok ~exit_code:0 ()
  in
  (match Manifest.validate with_journal with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "journal member rejected: %s" msg);
  (match Manifest.validate (rewrite "journal" (Json.Int 3) with_journal) with
  | Ok () -> Alcotest.fail "non-object journal member validated"
  | Error _ -> ());
  let plain = Manifest.build ~command:"x" ~status:Manifest.Ok ~exit_code:0 () in
  match
    Manifest.validate (rewrite "schema" (Json.String Manifest.v2_schema) plain)
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "v2 manifest rejected: %s" msg

(* The observability bargain: a run that enables neither --profile nor a
   journal pays one branch on the hot path and leaves NO trace in the
   metric registry — so its manifests stay byte-comparable with builds
   that predate the instrumentation.  Two placements from a cleared
   registry must produce identical metric snapshots with no prof/* name,
   and no drift on the manifest's deterministic surface. *)
let test_prof_off_path_is_silent () =
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "profiling is off by default" false
    (Trg_obs.Prof.enabled ());
  Alcotest.(check bool) "journal is off by default" false (Journal.recording ());
  let place () =
    Metrics.clear ();
    let prepared = Runner.prepare (Trg_synth.Bench.find "small") in
    ignore (Trg_place.Gbsc.place (Runner.program prepared) prepared.Runner.prof);
    ( Json.to_string (Metrics.to_json ()),
      Manifest.build ~command:"explain" ~status:Manifest.Ok ~exit_code:0 () )
  in
  let snap_a, manifest_a = place () in
  let snap_b, manifest_b = place () in
  Alcotest.(check string) "unprofiled placements are metric-identical" snap_a
    snap_b;
  Alcotest.(check bool) "no prof/* metric registered" true
    (not (contains snap_a "prof/"));
  Alcotest.(check int) "no drift on the manifest's deterministic surface" 0
    (List.length (Manifest.diff manifest_a manifest_b))

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "json parse errors" `Quick test_json_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
    Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
    Alcotest.test_case "metric kind clash" `Quick test_metric_kind_clash;
    Alcotest.test_case "metrics clear" `Quick test_metrics_clear;
    Alcotest.test_case "snapshot golden" `Quick test_snapshot_golden;
    Alcotest.test_case "span disabled transparent" `Quick test_span_disabled_is_transparent;
    Alcotest.test_case "span nesting and order" `Quick test_span_nesting_and_order;
    Alcotest.test_case "span failure outcome" `Quick test_span_failure_outcome;
    Alcotest.test_case "span allocation monotone" `Quick test_span_alloc_monotone;
    Alcotest.test_case "span meter settled between spans" `Quick test_span_meter_settled;
    Alcotest.test_case "manifest roundtrip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "manifest validation rejects" `Quick test_manifest_validate_rejects;
    Alcotest.test_case "manifest schema versions" `Quick test_manifest_schema_versions;
    Alcotest.test_case "manifest diff" `Quick test_manifest_diff;
    Alcotest.test_case "manifest only prefixes" `Quick test_manifest_selected;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_trace_export;
    Alcotest.test_case "chrome distinct lanes" `Quick test_chrome_distinct_lanes;
    Alcotest.test_case "perf ledger roundtrip" `Quick test_perf_ledger_roundtrip;
    Alcotest.test_case "perf ledger recovery" `Quick test_perf_ledger_recovery;
    Alcotest.test_case "perf gate band edge" `Quick test_perf_gate_band_edge;
    Alcotest.test_case "perf counters jobs-invariant" `Quick test_perf_counters_jobs_invariant;
    Alcotest.test_case "perf meter settled between units" `Quick test_perf_meter_settled;
    Alcotest.test_case "failed benchmark in manifest" `Quick test_failed_benchmark_in_manifest;
    Alcotest.test_case "unit spans named by pool key" `Quick test_unit_spans_named_by_key;
    Alcotest.test_case "run populates counters" `Quick test_counters_populated_by_run;
    Alcotest.test_case "prof off-path is silent" `Quick test_prof_off_path_is_silent;
    Alcotest.test_case "journal state machine" `Quick test_journal_state_machine;
    Alcotest.test_case "journal abort" `Quick test_journal_abort;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal fault matrix" `Quick test_journal_fault_matrix;
    Alcotest.test_case "manifest journal member" `Quick test_manifest_journal_member;
  ]
