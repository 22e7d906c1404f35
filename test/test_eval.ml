module Runner = Trg_eval.Runner
module Table1 = Trg_eval.Table1
module Figure5 = Trg_eval.Figure5
module Figure6 = Trg_eval.Figure6
module Padding = Trg_eval.Padding
module Setassoc = Trg_eval.Setassoc
module Ablation = Trg_eval.Ablation
module Bench = Trg_synth.Bench
module Layout = Trg_program.Layout
module Program = Trg_program.Program
module Explain = Trg_eval.Explain
module Replay = Trg_eval.Replay
module Why = Trg_eval.Why
module Journal = Trg_obs.Journal
module Json = Trg_obs.Json
module Cost = Trg_place.Cost
module Gbsc = Trg_place.Gbsc

(* One shared prepared runner: preparation is the expensive step. *)
let runner = lazy (Runner.prepare (Bench.find "small"))

let test_prepare_consistency () =
  let r = Lazy.force runner in
  Alcotest.(check int) "program size matches shape" 160
    (Program.n_procs (Runner.program r));
  Alcotest.(check bool) "train and test differ" true
    (Trg_trace.Trace.to_list r.Runner.train <> Trg_trace.Trace.to_list r.Runner.test)

let test_layouts_cover_program () =
  let r = Lazy.force runner in
  List.iter
    (fun layout ->
      Alcotest.(check int) "complete layout" 160 (Array.length (Layout.order layout)))
    [
      Runner.default_layout r;
      Runner.ph_layout r;
      Runner.hkc_layout r;
      Runner.gbsc_layout r;
    ]

let test_table1_row () =
  let r = Lazy.force runner in
  let row = Table1.row_of r in
  Alcotest.(check string) "name" "small" row.Table1.name;
  Alcotest.(check int) "train events" 200_000 row.Table1.train_events;
  Alcotest.(check bool) "default MR sane" true
    (row.Table1.default_miss_rate > 0. && row.Table1.default_miss_rate < 0.5);
  Alcotest.(check bool) "avg Q positive" true (row.Table1.avg_q > 1.)

let test_table1_paper_reference_complete () =
  List.iter
    (fun shape ->
      Alcotest.(check bool)
        (shape.Trg_synth.Shape.name ^ " has a paper row")
        true
        (List.mem_assoc shape.Trg_synth.Shape.name Table1.paper_reference))
    Bench.all

let test_figure5_shapes () =
  let r = Lazy.force runner in
  let res = Figure5.run ~runs:4 r in
  Alcotest.(check int) "three algorithms" 3 (List.length res.Figure5.results);
  List.iter
    (fun alg ->
      Alcotest.(check int) "4 perturbed runs" 4 (Array.length alg.Figure5.sorted);
      let sorted = Array.copy alg.Figure5.sorted in
      Array.sort compare sorted;
      Alcotest.(check bool) "ascending" true (sorted = alg.Figure5.sorted);
      Array.iter
        (fun mr -> Alcotest.(check bool) "rate in (0,1)" true (mr > 0. && mr < 1.))
        alg.Figure5.sorted)
    res.Figure5.results

let test_figure5_gbsc_best () =
  let r = Lazy.force runner in
  let res = Figure5.run ~runs:4 r in
  let unperturbed a =
    (List.find (fun x -> x.Figure5.algo = a) res.Figure5.results).Figure5.unperturbed
  in
  Alcotest.(check bool) "GBSC beats PH" true
    (unperturbed Figure5.GBSC < unperturbed Figure5.PH);
  Alcotest.(check bool) "GBSC beats default" true
    (unperturbed Figure5.GBSC < res.Figure5.default_mr)

let test_figure5_deterministic () =
  let r = Lazy.force runner in
  let a = Figure5.run ~runs:3 ~seed:5 r and b = Figure5.run ~runs:3 ~seed:5 r in
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "same sorted rates" true (x.Figure5.sorted = y.Figure5.sorted))
    a.Figure5.results b.Figure5.results

let test_figure6_correlations () =
  let r = Lazy.force runner in
  let res = Figure6.run ~n:20 r in
  Alcotest.(check int) "20 points" 20 (Array.length res.Figure6.points);
  Alcotest.(check bool)
    (Printf.sprintf "TRG metric strongly correlated (r=%.3f)" res.Figure6.r_trg)
    true (res.Figure6.r_trg > 0.8);
  Alcotest.(check bool) "TRG metric at least as good as WCG metric" true
    (res.Figure6.r_trg >= res.Figure6.r_wcg -. 0.02)

let test_figure6_first_point_is_base () =
  let r = Lazy.force runner in
  let res = Figure6.run ~n:5 r in
  let base = res.Figure6.points.(0) in
  (* The unmodified GBSC placement should be among the best layouts. *)
  Array.iter
    (fun p ->
      Alcotest.(check bool) "base near minimum" true
        (base.Figure6.miss_rate <= p.Figure6.miss_rate +. 0.02))
    res.Figure6.points

let test_padding_increases_misses () =
  let r = Lazy.force runner in
  let res = Padding.run r in
  Alcotest.(check bool)
    (Printf.sprintf "padding hurts (%.4f -> %.4f)" res.Padding.base_mr
       res.Padding.padded_mr)
    true
    (res.Padding.padded_mr > res.Padding.base_mr)

let test_padding_zero_is_identity () =
  let r = Lazy.force runner in
  let res = Padding.run ~pad:0 r in
  Alcotest.(check (float 1e-12)) "no padding, no change" res.Padding.base_mr
    res.Padding.padded_mr

let test_setassoc_rows () =
  let res = Setassoc.run (Bench.find "small") in
  let rows (s : Setassoc.section) = s.Setassoc.rows in
  Alcotest.(check int) "four 2-way rows" 4 (List.length (rows res.Setassoc.two_way));
  Alcotest.(check int) "four 4-way rows" 4 (List.length (rows res.Setassoc.four_way));
  let get section label =
    (List.find (fun r -> r.Setassoc.label = label) (rows section)).Setassoc.miss_rate
  in
  let default = get res.Setassoc.two_way "default layout" in
  let sa = get res.Setassoc.two_way "GBSC-SA (pair database)" in
  Alcotest.(check bool) "GBSC-SA beats default on 2-way" true (sa < default);
  (* At 4 ways conflicts nearly vanish; require the tuple placement not to
     be materially worse than the default layout. *)
  Alcotest.(check bool) "tuple SA competitive on 4-way" true
    (get res.Setassoc.four_way "GBSC-SA (tuple database)"
    <= 1.1 *. get res.Setassoc.four_way "default layout")

let test_ablation_rows () =
  let r = Lazy.force runner in
  let res = Ablation.run r in
  Alcotest.(check int) "eleven variants" 11 (List.length res.Ablation.rows);
  let get label =
    (List.find (fun x -> x.Ablation.label = label) res.Ablation.rows).Ablation.miss_rate
  in
  let full = get "GBSC (full)" in
  Alcotest.(check bool) "full GBSC beats default" true (full < get "default layout")

(* --- explain's sparkline ----------------------------------------------- *)

let test_sparkline () =
  (* Varied series scale to their own maximum. *)
  Alcotest.(check string) "varied series keeps its shape" " .+@"
    (Explain.sparkline [| 0; 1; 5; 10 |]);
  Alcotest.(check string) "zeros are blank" "   "
    (Explain.sparkline [| 0; 0; 0 |]);
  (* A flat series has no shape: drawing it at full height would read as
     a sustained peak, so it renders at the mid glyph. *)
  Alcotest.(check string) "flat series renders mid, not peak" "+++"
    (Explain.sparkline [| 5; 5; 5 |]);
  Alcotest.(check string) "single point is flat, not a spike" "+"
    (Explain.sparkline [| 1000 |]);
  Alcotest.(check string) "flat with gaps keeps the gaps" "+ +"
    (Explain.sparkline [| 7; 0; 7 |]);
  Alcotest.(check string) "empty series" "" (Explain.sparkline [||])

(* --- journal record / replay / why ------------------------------------- *)

(* Record a live GBSC placement and verify its journal bit-identically
   under BOTH cost engines: the second pass is the differential witness
   that full and incremental evaluators agree decision-by-decision. *)
let test_replay_verifies_bit_identically () =
  Fun.protect ~finally:Journal.reset (fun () ->
      let r = Lazy.force runner in
      let j, layout = Replay.record ~algo:"gbsc" r in
      Alcotest.(check bool) "journal captured decisions" true
        (Array.length j.Journal.decisions > 0);
      Alcotest.(check int) "journal claims the live layout"
        (Layout.digest layout) j.Journal.claims.Journal.layout_crc;
      Alcotest.(check bool) "GBSC decisions carry offsets" true
        (Array.for_all (fun d -> d.Journal.shift <> None) j.Journal.decisions);
      let saved = Cost.engine () in
      Fun.protect
        ~finally:(fun () -> Cost.set_engine saved)
        (fun () ->
          List.iter
            (fun eng ->
              Cost.set_engine eng;
              let rep = Replay.verify j in
              if not (Replay.ok rep) then
                Alcotest.failf "replay under %s engine:\n  %s"
                  (Cost.engine_name eng)
                  (String.concat "\n  " rep.Replay.r_mismatches);
              Alcotest.(check int) "every step re-driven"
                (Array.length j.Journal.decisions)
                rep.Replay.r_steps;
              Alcotest.(check (option int)) "layout digest reproduced"
                (Some j.Journal.claims.Journal.layout_crc)
                rep.Replay.r_layout_crc)
            [ Cost.Full; Cost.Incr ]))

let test_replay_rejects_tampering () =
  Fun.protect ~finally:Journal.reset (fun () ->
      let r = Lazy.force runner in
      let j, _ = Replay.record ~algo:"gbsc" r in
      (* One flipped weight — the kind of damage a CRC would miss if the
         file were edited and re-saved. *)
      let decisions = Array.map (fun d -> { d with Journal.step = d.Journal.step }) j.Journal.decisions in
      decisions.(0) <-
        { decisions.(0) with Journal.weight = decisions.(0).Journal.weight +. 1. };
      let rep = Replay.verify { j with Journal.decisions } in
      Alcotest.(check bool) "tampered weight detected" false (Replay.ok rep);
      Alcotest.(check bool) "mismatch names the step" true
        (rep.Replay.r_mismatches <> []))

(* PH journals are cache-independent (all-zero cache triple) and have no
   offsets; the round-trip exercises prepare_for's default-cache path. *)
let test_replay_ph_roundtrip () =
  Fun.protect ~finally:Journal.reset (fun () ->
      let r = Lazy.force runner in
      let j, _ = Replay.record ~algo:"ph" r in
      Alcotest.(check string) "meta algo" "ph" j.Journal.meta.Journal.algo;
      Alcotest.(check int) "cache-independent journal" 0
        j.Journal.meta.Journal.cache_size;
      Alcotest.(check bool) "no offsets on PH chains" true
        (Array.for_all (fun d -> d.Journal.shift = None) j.Journal.decisions);
      let rep = Replay.verify j in
      if not (Replay.ok rep) then
        Alcotest.failf "ph replay:\n  %s"
          (String.concat "\n  " rep.Replay.r_mismatches))

let test_why_analysis () =
  Fun.protect ~finally:Journal.reset (fun () ->
      let r = Lazy.force runner in
      let j, layout = Replay.record ~algo:"gbsc" r in
      let program = Runner.program r in
      let cache = r.Runner.config.Gbsc.cache in
      let aligned =
        Layout.line_align ~line_size:cache.Trg_cache.Config.line_size
          ~n_sets:(Trg_cache.Config.n_sets cache) program layout
      in
      let attrib =
        Trg_cache.Attrib.simulate program aligned cache r.Runner.test
      in
      let trg_weight =
        Trg_profile.Graph.weight r.Runner.prof.Gbsc.select.Trg_profile.Trg.graph
      in
      let proc name =
        match Program.find_by_name program name with
        | Some p -> p
        | None -> Alcotest.failf "benchmark has no procedure %s" name
      in
      let analyze ?q p =
        Why.analyze ~journal:j ~trg_weight ~attrib
          ~proc_name:(Program.name program) ~p:(proc p)
          ?q:(Option.map proc q) ()
      in
      (* Pair mode: leaf1 and leaf2 share a TRG edge, so the greedy search
         joins their groups at some step — and every claim in the join
         must match the journal's decision at that step. *)
      let pair = analyze ~q:"leaf2" "leaf1" in
      (match pair.Why.w_joined with
      | None -> Alcotest.fail "leaf1 and leaf2 were never joined"
      | Some join ->
        let d = j.Journal.decisions.(join.Why.j_step) in
        Alcotest.(check bool) "join mirrors the journal decision" true
          (d.Journal.weight = join.Why.j_weight
          && d.Journal.runner_up = join.Why.j_runner_up
          && d.Journal.shift = join.Why.j_shift);
        (match join.Why.j_margin with
        | Some m -> Alcotest.(check bool) "margin non-negative" true (m >= 0.)
        | None -> ());
        (match pair.Why.w_history with
        | [] -> Alcotest.fail "pair history is empty"
        | history ->
          let last = List.nth history (List.length history - 1) in
          Alcotest.(check int) "history ends at the joining step"
            join.Why.j_step last.Why.j_step));
      Alcotest.(check bool) "TRG cross-reference found" true
        (match pair.Why.w_trg_weight with Some w -> w > 0. | None -> false);
      (* Single mode: full merge history of one procedure's group. *)
      let single = analyze "leaf1" in
      Alcotest.(check bool) "single mode has no join" true
        (single.Why.w_joined = None && single.Why.w_q = None);
      Alcotest.(check bool) "single-mode history in step order" true
        (let steps = List.map (fun x -> x.Why.j_step) single.Why.w_history in
         steps = List.sort compare steps && steps <> []);
      match Json.member "schema" (Why.to_json pair) with
      | Some (Json.String "trgplace-why/1") -> ()
      | _ -> Alcotest.fail "why JSON schema marker missing")

(* [--quick] supplies defaults only: an explicit -b, --runs or --points
   wins, and with none of them the result is exactly the quick (or the
   default) options. *)
let test_resolve_options () =
  let module R = Trg_eval.Report in
  let names o = List.map (fun s -> s.Trg_synth.Shape.name) o.R.benches in
  let resolve ?runs ?points ?(benches = []) quick =
    R.resolve_options ~quick ~runs ~points ~benches:(List.map Bench.find benches)
  in
  let check_counts label (runs, points, benches) o =
    Alcotest.(check int) (label ^ ": runs") runs o.R.runs;
    Alcotest.(check int) (label ^ ": points") points o.R.fig6_points;
    Alcotest.(check (list string)) (label ^ ": benches") benches (names o)
  in
  Alcotest.(check bool) "--quick alone is quick_options" true
    (resolve true = R.quick_options);
  Alcotest.(check bool) "no flag is default_options" true
    (resolve false = R.default_options);
  check_counts "--quick -b vortex" (8, 20, [ "vortex" ])
    (resolve ~benches:[ "vortex" ] true);
  check_counts "--quick --runs 3 --points 5" (3, 5, [ "small" ])
    (resolve ~runs:3 ~points:5 true);
  check_counts "--runs 2 -b go -b perl" (2, 80, [ "go"; "perl" ])
    (resolve ~runs:2 ~benches:[ "go"; "perl" ] false);
  let q = resolve ~benches:[ "go" ] true in
  Alcotest.(check bool) "--quick keeps its summary printing" false
    (q.R.print_cdf || q.R.print_points)

let suite =
  [
    Alcotest.test_case "prepare consistency" `Quick test_prepare_consistency;
    Alcotest.test_case "layouts cover program" `Quick test_layouts_cover_program;
    Alcotest.test_case "table1 row" `Quick test_table1_row;
    Alcotest.test_case "table1 paper reference complete" `Quick
      test_table1_paper_reference_complete;
    Alcotest.test_case "figure5 shapes" `Quick test_figure5_shapes;
    Alcotest.test_case "figure5 GBSC best" `Quick test_figure5_gbsc_best;
    Alcotest.test_case "figure5 deterministic" `Quick test_figure5_deterministic;
    Alcotest.test_case "figure6 correlations" `Quick test_figure6_correlations;
    Alcotest.test_case "figure6 base point" `Quick test_figure6_first_point_is_base;
    Alcotest.test_case "padding increases misses" `Quick test_padding_increases_misses;
    Alcotest.test_case "padding zero identity" `Quick test_padding_zero_is_identity;
    Alcotest.test_case "setassoc rows" `Quick test_setassoc_rows;
    Alcotest.test_case "ablation rows" `Quick test_ablation_rows;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "replay verifies bit-identically" `Quick
      test_replay_verifies_bit_identically;
    Alcotest.test_case "replay rejects tampering" `Quick
      test_replay_rejects_tampering;
    Alcotest.test_case "replay ph roundtrip" `Quick test_replay_ph_roundtrip;
    Alcotest.test_case "why analysis" `Quick test_why_analysis;
    Alcotest.test_case "resolve options: --quick sets defaults only" `Quick
      test_resolve_options;
  ]
