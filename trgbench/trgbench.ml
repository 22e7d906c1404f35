(* trgbench: the trgplace benchmark (see README.md in this directory).

   trgbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     runs each named workload (all three by default) in a process of its
     own, prints every metric as `workload metric value unit`, and ends
     with one JSON line {correct, attempted, failed, metrics}.
   trgbench compare BASE.jsonl NEW.jsonl
     checks NEW's end-to-end medians against BASE's, within the bounds
     of BENCHMARK.json.
   trgbench golden
     prints the seed-0 reference outputs that golden.json holds. *)

module W = Workloads
module Json = Trg_obs.Json
module Layout = Trg_program.Layout
module Checksum = Trg_util.Checksum

let usage code =
  prerr_string
    "usage: trgbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       trgbench compare BASE.jsonl NEW.jsonl\n\
    \       trgbench golden\n\
     workloads: place-cold place-warm-sparse place-warm-dense\n";
  exit code

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("trgbench: " ^ m);
      exit 2)
    fmt

let parse_json path =
  match Json.of_string (W.read_file path) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let member_path keys j = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) keys

(* --- golden outputs ------------------------------------------------------ *)

let golden_file = "trgbench/golden.json"

let golden_benches = [ "perl"; "go"; "gcc"; "vortex"; "ghostscript" ]

let crc_of j = Option.bind (Option.bind j Json.to_string_opt) Checksum.of_hex

let bench_golden golden bench =
  let field k = member_path [ "benches"; bench; k ] golden in
  match
    (crc_of (field "layout_crc"),
     Option.bind (field "test_accesses") Json.to_int,
     Option.bind (field "test_misses") Json.to_int)
  with
  | Some g_layout_crc, Some g_accesses, Some g_misses ->
    { W.g_layout_crc; g_accesses; g_misses }
  | _ -> failwith (Printf.sprintf "%s: no complete entry for %s" golden_file bench)

let golden_cmd () =
  let dir = Filename.concat ".trgbench" "golden" in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let benches =
    List.map
      (fun bench ->
        let c = W.setup_warm ~seed:0 ~dir bench in
        let o = c.W.job () in
        ( bench,
          Json.Obj
            [
              ("layout_crc", Json.String (Checksum.to_hex (Layout.digest o.W.layout)));
              ("test_accesses", Json.Int o.W.sim.Trg_cache.Sim.accesses);
              ("test_misses", Json.Int o.W.sim.Trg_cache.Sim.misses);
            ] ))
      golden_benches
  in
  print_endline (Json.to_string ~indent:2 (Json.Obj [ ("benches", Json.Obj benches) ]))

(* --- running workloads --------------------------------------------------- *)

(* Runs [f] in a forked process and returns its result, so each workload
   has its own heap and its own peak RSS.  The child leaves with _exit:
   the parent alone owns stdout and the at_exit handlers. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (v : (W.result, string) result) [];
    close_out oc;
    flush stderr;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v =
      try (Marshal.from_channel ic : (W.result, string) result)
      with End_of_file | Failure _ -> Error "workload process ended without a result"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    v

let run_workload ~seed ~seconds ~traced workload =
  in_child (fun () ->
      let dir = Filename.concat ".trgbench" (Printf.sprintf "work-%d" (Unix.getpid ())) in
      mkdir_p dir;
      let golden = if seed = 0 then Some (parse_json golden_file) else None in
      Fun.protect
        ~finally:(fun () -> remove_tree dir)
        (fun () ->
          let r =
            W.run_stream ~workload ~seed ~seconds ~traced
              ~golden:(fun bench -> Option.map (fun g -> bench_golden g bench) golden)
              ~dir
          in
          if traced then begin
            let path = Printf.sprintf ".trgbench/%s.trace.json" workload in
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (Json.to_string (Tracer.to_chrome (Tracer.spans ()))));
            Printf.eprintf "trgbench: %s: Chrome trace written to %s\n" workload path
          end;
          r))

let correct (r : W.result) = r.W.problems = [] && r.W.failed = 0

let result_json ?(prefix = "") (r : W.result) =
  ( correct r,
    r.W.attempted,
    r.W.failed,
    List.map
      (fun (name, v, unit) ->
        (prefix ^ name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      r.W.metrics )

let summary_fields (correct, attempted, failed, metrics) =
  [
    ("correct", Json.Bool correct);
    ("attempted", Json.Int attempted);
    ("failed", Json.Int failed);
    ("metrics", Json.Obj metrics);
  ]

let run_cmd ~workloads ~seed ~seconds ~traced ~out =
  let results =
    List.map
      (fun w ->
        match run_workload ~seed ~seconds ~traced w with
        | Ok r -> (w, r)
        | Error e -> fail "%s: %s" w e)
      workloads
  in
  List.iter
    (fun (w, (r : W.result)) ->
      List.iter (Printf.eprintf "trgbench: CHECK FAILED: %s\n") r.W.problems;
      List.iter
        (fun (name, v, unit) -> Printf.printf "%s %s %.6g %s\n" w name v unit)
        (r.W.metrics @ r.W.notes))
    results;
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
          List.iter
            (fun (w, r) ->
              let line =
                Json.Obj
                  (("workload", Json.String w)
                   :: ("seed", Json.Int seed)
                   :: ("trace", Json.Int (if traced then 1 else 0))
                   :: summary_fields (result_json r))
              in
              output_string oc (Json.to_string line ^ "\n"))
            results))
    out;
  let combined =
    match results with
    | [ (_, r) ] -> result_json r
    | _ ->
      List.fold_left
        (fun (c, a, f, m) (w, r) ->
          let c', a', f', m' = result_json ~prefix:(w ^ ".") r in
          (c && c', a + a', f + f', m @ m'))
        (true, 0, 0, []) results
  in
  print_endline (Json.to_string (Json.Obj (summary_fields combined)));
  let ok, _, _, _ = combined in
  exit (if ok then 0 else 1)

(* --- compare -------------------------------------------------------------- *)

let load_runs path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.of_string l with
         | Ok j -> j
         | Error e -> failwith (path ^ ": " ^ e))
  |> List.filter (fun j -> Option.bind (Json.member "trace" j) Json.to_int = Some 0)

let samples runs ~workload ~metric =
  List.filter_map
    (fun j ->
      if Option.bind (Json.member "workload" j) Json.to_string_opt = Some workload then
        Option.bind (member_path [ "metrics"; metric; "value" ] j) Json.to_float
      else None)
    runs

let compare_cmd base_path new_path =
  let spec = parse_json "BENCHMARK.json" in
  let metrics =
    Option.bind (Json.member "end_to_end" spec) Json.to_list
    |> Option.value ~default:[]
    |> List.map (fun m ->
           let s k = Option.bind (Json.member k m) Json.to_string_opt in
           match (s "name", s "better", Option.bind (Json.member "bound" m) Json.to_float) with
           | Some n, Some b, Some bound -> (n, b = "higher", bound)
           | _ -> failwith "BENCHMARK.json: malformed end_to_end entry")
  in
  let base = load_runs base_path and next = load_runs new_path in
  let workloads =
    List.sort_uniq compare
      (List.filter_map (fun j -> Option.bind (Json.member "workload" j) Json.to_string_opt) base)
  in
  let incorrect =
    List.filter (fun j -> Json.member "correct" j <> Some (Json.Bool true)) (base @ next)
  in
  let bad = ref (List.length incorrect) in
  if incorrect <> [] then Printf.printf "%d run(s) reported incorrect output\n" (List.length incorrect);
  Printf.printf "%-18s %-22s %12s %12s %8s %6s\n" "workload" "metric" "base" "new" "worse" "bound";
  List.iter
    (fun workload ->
      List.iter
        (fun (metric, higher_better, bound) ->
          let median l = W.median_of l in
          match (samples base ~workload ~metric, samples next ~workload ~metric) with
          | (_ :: _ as b), (_ :: _ as n) ->
            let mb = median b and mn = median n in
            let worse = (if higher_better then mb -. mn else mn -. mb) /. Float.abs mb in
            let regressed = worse > bound in
            if regressed then incr bad;
            Printf.printf "%-18s %-22s %12.6g %12.6g %+7.1f%% %5.0f%%%s\n" workload metric mb mn
              (100. *. worse) (100. *. bound)
              (if regressed then "  REGRESSED" else "")
          | _ ->
            incr bad;
            Printf.printf "%-18s %-22s missing from one side\n" workload metric)
        metrics)
    workloads;
  if workloads = [] then failwith (base_path ^ ": no untraced runs");
  exit (if !bad = 0 then 0 else 1)

(* --- argument parsing ------------------------------------------------------ *)

let main () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_cmd a b
  | [ "golden" ] -> golden_cmd ()
  | args ->
    let workloads = ref [] and seed = ref 0 and seconds = ref 35. in
    let traced = ref false and out = ref None in
    let int_arg flag v =
      match int_of_string_opt v with
      | Some n when n >= 0 -> n
      | _ -> fail "%s expects a non-negative integer, got %S" flag v
    in
    let rec go = function
      | [] -> ()
      | "--workload" :: w :: rest ->
        if not (List.mem w W.names) then fail "unknown workload %S" w;
        workloads := !workloads @ [ w ];
        go rest
      | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        go rest
      | "--seconds" :: v :: rest ->
        seconds := float_of_int (int_arg "--seconds" v);
        go rest
      | "--trace" :: v :: rest ->
        (match v with
        | "0" -> traced := false
        | "1" -> traced := true
        | _ -> fail "--trace expects 0 or 1, got %S" v);
        go rest
      | "--out" :: f :: rest ->
        out := Some f;
        go rest
      | ("--help" | "-h") :: _ -> usage 0
      | arg :: _ ->
        prerr_endline ("trgbench: unrecognized argument " ^ arg);
        usage 2
    in
    go args;
    if not (Sys.file_exists golden_file) then
      fail "run from the root of a trgplace checkout (%s not found)" golden_file;
    mkdir_p ".trgbench";
    run_cmd
      ~workloads:(if !workloads = [] then W.names else !workloads)
      ~seed:!seed ~seconds:!seconds ~traced:!traced ~out:!out

let () = try main () with Failure m | Sys_error m -> fail "%s" m
