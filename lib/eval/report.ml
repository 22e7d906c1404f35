module Shape = Trg_synth.Shape
module Bench = Trg_synth.Bench
module Span = Trg_obs.Span

type options = {
  runs : int;
  fig6_points : int;
  benches : Shape.t list;
  print_cdf : bool;
  print_points : bool;
  keep_going : bool;
  force_fail : string list;
  jobs : int;
  timeout : float option;
  retries : int;
  policy : Trg_cache.Policy.kind;
  cpus : string list;
}

type failure = { experiment : string; bench : string option; message : string }

let default_options =
  {
    runs = 40;
    fig6_points = 80;
    benches = Bench.all;
    print_cdf = true;
    print_points = true;
    keep_going = false;
    force_fail = [];
    jobs = 0;
    timeout = None;
    retries = 0;
    policy = Trg_cache.Policy.Lru;
    cpus = Trg_cache.Cpu.default_selection;
  }

let quick_options =
  {
    runs = 8;
    fig6_points = 20;
    benches = [ Bench.find "small" ];
    print_cdf = false;
    print_points = false;
    keep_going = false;
    force_fail = [];
    jobs = 0;
    timeout = None;
    retries = 0;
    policy = Trg_cache.Policy.Lru;
    cpus = Trg_cache.Cpu.default_selection;
  }

(* [--quick] picks the base; each flag given explicitly overrides it. *)
let resolve_options ~quick ~runs ~points ~benches =
  let base = if quick then quick_options else default_options in
  {
    base with
    runs = Option.value runs ~default:base.runs;
    fig6_points = Option.value points ~default:base.fig6_points;
    benches = (match benches with [] -> base.benches | l -> l);
  }

let message_of = function Failure m -> m | e -> Printexc.to_string e

let pick options preferred =
  let by_name name = List.find_opt (fun s -> s.Shape.name = name) options.benches in
  match by_name preferred with
  | Some s -> s
  | None -> (
    match options.benches with
    | s :: _ -> s
    | [] -> invalid_arg "Report: no benchmarks selected")

(* --- execution model -------------------------------------------------- *)

(* One run's state: the options plus the prepared-benchmark table filled
   by the preparation phase.  A fresh context per top-level call replaces
   the old module-global cache, so concurrent or repeated runs cannot
   leak prepared state (or fault-injection settings) into each other. *)
type ctx = {
  options : options;
  prepared : (string, Runner.t) Hashtbl.t;
  prep_errors : (string, string) Hashtbl.t;
}

(* Everything a work unit can produce, as one closed variant so a single
   monomorphic pool shards units from heterogeneous experiments. *)
type payload =
  | P_unit
  | P_table1 of Table1.row
  | P_charact of Charact.row
  | P_padding of Padding.result
  | P_fig5_default of float
  | P_fig5 of Figure5.result
  | P_fig6 of Figure6.point array
  | P_sweep of Sweep.row
  | P_section of Setassoc.section
  | P_range of (float * float)

type exec_unit = {
  u_bench : string option;
  u_tag : string;
  u_weight : int;  (* relative cost estimate; heavy units dispatch first *)
  u_work : unit -> payload;
}

(* A built experiment is an ordered list of runnable units and skips
   (benchmarks whose preparation already failed). *)
type item = Run of exec_unit | Skip of string option * string

type spec = {
  sp_name : string;
  sp_needs : options -> Shape.t list;  (* benchmarks to prepare up front *)
  sp_build : ctx -> item list;
  sp_render : ctx -> (string option * string * payload) list -> unit;
}

let unit_ ?bench ?(weight = 1) ~tag work =
  Run { u_bench = bench; u_tag = tag; u_weight = weight; u_work = work }

let with_prepared ctx name k =
  match Hashtbl.find_opt ctx.prepared name with
  | Some r -> k r
  | None ->
    let message =
      match Hashtbl.find_opt ctx.prep_errors name with
      | Some m -> m
      | None -> name ^ ": benchmark was not prepared"
    in
    [ Skip (Some name, message) ]

(* --- experiment specifications ---------------------------------------- *)

let per_bench_spec ~name ?(weight = 1) ~tag ~work render =
  {
    sp_name = name;
    sp_needs = (fun o -> o.benches);
    sp_build =
      (fun ctx ->
        List.concat_map
          (fun s ->
            let b = s.Shape.name in
            with_prepared ctx b (fun r ->
                [ unit_ ~bench:b ~weight ~tag (fun () -> work ctx r) ]))
          ctx.options.benches);
    sp_render = render;
  }

(* Experiments that print inside their unit: the captured output is the
   whole result, replayed by the glue in benchmark order. *)
let print_spec ~name ?(weight = 1) work =
  per_bench_spec ~name ~weight ~tag:name
    ~work:(fun _ r ->
      work r;
      P_unit)
    (fun _ _ -> ())

(* Experiments that run on one chosen benchmark. *)
let single_spec ~name ~prefer ?(weight = 1) work =
  {
    sp_name = name;
    sp_needs = (fun o -> [ pick o prefer ]);
    sp_build =
      (fun ctx ->
        let shape = pick ctx.options prefer in
        let b = shape.Shape.name in
        with_prepared ctx b (fun r ->
            [
              unit_ ~bench:b ~weight ~tag:name (fun () ->
                  work r;
                  P_unit);
            ]));
    sp_render = (fun _ _ -> ());
  }

let spec_table1 =
  per_bench_spec ~name:"table1" ~tag:"row"
    ~work:(fun _ r -> P_table1 (Table1.row_of r))
    (fun _ s ->
      Table1.print
        (List.filter_map (function _, _, P_table1 row -> Some row | _ -> None) s))

let spec_characterize =
  per_bench_spec ~name:"characterize" ~tag:"row"
    ~work:(fun _ r -> P_charact (Charact.row_of r))
    (fun _ s ->
      Charact.print
        (List.filter_map (function _, _, P_charact row -> Some row | _ -> None) s))

let spec_figure5 =
  {
    sp_name = "figure5";
    sp_needs = (fun o -> o.benches);
    sp_build =
      (fun ctx ->
        let runs = ctx.options.runs in
        List.concat_map
          (fun s ->
            let b = s.Shape.name in
            with_prepared ctx b (fun r ->
                unit_ ~bench:b ~tag:"default" (fun () ->
                    P_fig5_default (Figure5.default_miss_rate r))
                :: List.map
                     (fun algo ->
                       unit_ ~bench:b ~weight:3 ~tag:(Figure5.algo_name algo)
                         (fun () -> P_fig5 (Figure5.run_algo ~runs r algo)))
                     [ Figure5.PH; Figure5.HKC; Figure5.GBSC ]))
          ctx.options.benches);
    sp_render =
      (fun ctx s ->
        List.iter
          (fun shape ->
            let b = shape.Shape.name in
            match Hashtbl.find_opt ctx.prepared b with
            | None -> ()
            | Some r ->
              let mine = List.filter (fun (bench, _, _) -> bench = Some b) s in
              let default_mr =
                List.find_map
                  (function _, _, P_fig5_default d -> Some d | _ -> None)
                  mine
              in
              let algos =
                List.filter_map
                  (function _, _, P_fig5 res -> Some res | _ -> None)
                  mine
              in
              (* Print only complete benchmarks; a missing part already
                 surfaced as a unit failure. *)
              (match default_mr with
              | Some default_mr when List.length algos = 3 ->
                Figure5.print ~cdf:ctx.options.print_cdf
                  (Figure5.of_results r ~default_mr algos)
              | _ -> ()))
          ctx.options.benches);
  }

let fig6_chunk = 10

let spec_figure6 =
  {
    sp_name = "figure6";
    sp_needs = (fun o -> [ pick o "go" ]);
    sp_build =
      (fun ctx ->
        let o = ctx.options in
        let shape = pick o "go" in
        let b = shape.Shape.name in
        with_prepared ctx b (fun r ->
            let n = o.fig6_points in
            let rec units lo =
              if lo >= n then []
              else begin
                let hi = min n (lo + fig6_chunk) in
                unit_ ~bench:b ~weight:3
                  ~tag:(Printf.sprintf "points %d-%d" lo (hi - 1))
                  (fun () -> P_fig6 (Figure6.run_range r ~lo ~hi))
                :: units hi
              end
            in
            units 0));
    sp_render =
      (fun ctx s ->
        let o = ctx.options in
        let shape = pick o "go" in
        match Hashtbl.find_opt ctx.prepared shape.Shape.name with
        | None -> ()
        | Some r ->
          let chunks =
            List.filter_map (function _, _, P_fig6 pts -> Some pts | _ -> None) s
          in
          let points = Array.concat chunks in
          if Array.length points = o.fig6_points then
            Figure6.print ~points:o.print_points (Figure6.of_points r points));
  }

let spec_padding =
  per_bench_spec ~name:"padding" ~tag:"padding"
    ~work:(fun _ r -> P_padding (Padding.run r))
    (fun _ s ->
      Padding.print_many
        (List.filter_map (function _, _, P_padding p -> Some p | _ -> None) s))

(* Set-associativity is by far the heaviest experiment (its pair and
   tuple databases are quadratic in Q), so it splits into the two cache
   sections plus perturbation slices; the pool runs them concurrently. *)
let sa_max_between = 32

let sa_runs = 8

let sa_chunk = 4

let spec_setassoc =
  {
    sp_name = "setassoc";
    sp_needs = (fun _ -> []);
    sp_build =
      (fun ctx ->
        let shape = Bench.find "small" in
        let b = shape.Shape.name in
        let force_fail = ctx.options.force_fail in
        let policy = ctx.options.policy in
        let section assoc tag =
          unit_ ~bench:b ~weight:40 ~tag (fun () ->
              P_section
                (Setassoc.run_section ~force_fail ~policy
                   ~max_between:sa_max_between ~assoc shape))
        in
        let rec perturbs lo =
          if lo >= sa_runs then []
          else begin
            let hi = min sa_runs (lo + sa_chunk) in
            unit_ ~bench:b ~weight:30 ~tag:(Printf.sprintf "perturb %d-%d" lo (hi - 1))
              (fun () ->
                P_range
                  (Setassoc.run_perturbation ~force_fail ~policy
                     ~max_between:sa_max_between ~lo ~hi shape))
            :: perturbs hi
          end
        in
        section 2 "2-way" :: section 4 "4-way" :: perturbs 0);
    sp_render =
      (fun _ s ->
        let shape = Bench.find "small" in
        let sections =
          List.filter_map
            (function _, tag, P_section sec -> Some (tag, sec) | _ -> None)
            s
        in
        let ranges =
          List.filter_map (function _, _, P_range r -> Some r | _ -> None) s
        in
        let n_perturb_units = (sa_runs + sa_chunk - 1) / sa_chunk in
        match (List.assoc_opt "2-way" sections, List.assoc_opt "4-way" sections) with
        | Some two_way, Some four_way when List.length ranges = n_perturb_units ->
          let sa_perturbed =
            List.fold_left
              (fun (lo, hi) (l, h) -> (Float.min lo l, Float.max hi h))
              (infinity, neg_infinity) ranges
          in
          Setassoc.print (Setassoc.of_parts shape ~two_way ~four_way ~sa_perturbed)
        | _ -> ());
  }

let spec_ablation =
  single_spec ~name:"ablation" ~prefer:"small" ~weight:3 (fun r ->
      Ablation.print (Ablation.run r))

let spec_splitting = print_spec ~name:"splitting" ~weight:2 (fun r -> Splitting.print (Splitting.run r))

let spec_paging = print_spec ~name:"paging" (fun r -> Paging.print (Paging.run r))

let spec_sampling =
  single_spec ~name:"sampling" ~prefer:"gcc" ~weight:2 (fun r ->
      Sampling.print (Sampling.run r))

let spec_blocks = print_spec ~name:"blocks" (fun r -> Blocks.print (Blocks.run r))

let spec_online =
  single_spec ~name:"online" ~prefer:"perl" (fun r -> Online.print (Online.run r))

(* The annealing headroom study is one long sequential chain; it cannot
   shard, but with weight 100 it dispatches first and overlaps everything
   else. *)
let spec_headroom =
  single_spec ~name:"headroom" ~prefer:"go" ~weight:100 (fun r ->
      Headroom.print (Headroom.run r))

let spec_hierarchy =
  per_bench_spec ~name:"hierarchy" ~weight:4 ~tag:"hierarchy"
    ~work:(fun ctx r ->
      Hierarchy.print (Hierarchy.run ~cpus:ctx.options.cpus r);
      P_unit)
    (fun _ _ -> ())

let spec_sweep =
  {
    sp_name = "sweep";
    sp_needs = (fun _ -> []);
    sp_build =
      (fun ctx ->
        let o = ctx.options in
        let shape = pick o "go" in
        let b = shape.Shape.name in
        let force_fail = o.force_fail in
        let policy = o.policy in
        List.map
          (fun size ->
            unit_ ~bench:b ~weight:5 ~tag:(Printf.sprintf "cache %dB" size)
              (fun () ->
                P_sweep (Sweep.run_size ~force_fail ~policy shape size)))
          Sweep.default_sizes);
    sp_render =
      (fun ctx s ->
        let shape = pick ctx.options "go" in
        let rows =
          List.filter_map (function _, _, P_sweep row -> Some row | _ -> None) s
        in
        if List.length rows = List.length Sweep.default_sizes then
          Sweep.print (Sweep.of_rows shape rows));
  }

(* --- glue: prepare, shard, replay ------------------------------------- *)

let pool_params options =
  ( (if options.jobs >= 1 then Some options.jobs else None),
    options.timeout,
    options.retries )

(* Runs a batch of experiments in two pool phases.

   Phase 1 prepares every benchmark any experiment needs, one work unit
   per benchmark; prepared runners are marshaled back to the parent and
   recorded in the context.  Phase 2 builds every experiment's unit list
   against the prepared table and shards the union through one shared
   pool, heaviest units first, so one slow experiment (annealing,
   set-associativity) overlaps the rest of the batch.

   Rendering then walks experiments in their declared order and units in
   their build order, replaying captured output — stdout is identical to
   the sequential run's, whatever the job count or completion order. *)
let run_specs options specs =
  let ctx =
    { options; prepared = Hashtbl.create 8; prep_errors = Hashtbl.create 8 }
  in
  let jobs, timeout, retries = pool_params options in
  let fail_fast = not options.keep_going in
  let needed =
    let seen = Hashtbl.create 8 in
    List.concat_map (fun sp -> sp.sp_needs options) specs
    |> List.filter (fun s ->
           if Hashtbl.mem seen s.Shape.name then false
           else begin
             Hashtbl.add seen s.Shape.name ();
             true
           end)
  in
  let force_fail = options.force_fail in
  let policy = options.policy in
  let prep_tasks =
    List.map
      (fun shape ->
        let name = shape.Shape.name in
        {
          Pool.key = "prepare " ^ name;
          work =
            (fun () ->
              Span.with_ name (fun () ->
                  Runner.prepare ~policy ~force_fail shape));
        })
      needed
  in
  let prep_outcomes = Pool.run ?jobs ?timeout ~retries ~fail_fast prep_tasks in
  List.iter2
    (fun shape (o : Runner.t Pool.outcome) ->
      print_string o.Pool.output;
      match o.Pool.value with
      | Ok r -> Hashtbl.replace ctx.prepared shape.Shape.name r
      | Error f ->
        Hashtbl.replace ctx.prep_errors shape.Shape.name (Pool.failure_to_string f))
    needed prep_outcomes;
  let built = List.map (fun sp -> (sp, sp.sp_build ctx)) specs in
  let units =
    List.concat_map
      (fun (sp, items) ->
        List.filter_map
          (function Run u -> Some (sp.sp_name, u) | Skip _ -> None)
          items)
      built
  in
  let n_units = List.length units in
  let indexed = List.mapi (fun i (en, u) -> (i, en, u)) units in
  (* Longest-processing-time dispatch order; results are re-indexed below
     so presentation never depends on it. *)
  let by_weight =
    List.stable_sort (fun (_, _, a) (_, _, b) -> compare b.u_weight a.u_weight) indexed
  in
  (* A unit's span is named by its pool key, which is unique in the
     batch: a heavy unit shows in the manifest as, e.g.,
     [setassoc [small] perturb 0-3]. *)
  let tasks =
    List.map
      (fun (_, en, u) ->
        let key =
          match u.u_bench with
          | Some b -> Printf.sprintf "%s [%s] %s" en b u.u_tag
          | None -> Printf.sprintf "%s %s" en u.u_tag
        in
        { Pool.key; work = (fun () -> Span.with_ key u.u_work) })
      by_weight
  in
  let outcomes = Pool.run ?jobs ?timeout ~retries ~fail_fast tasks in
  let results : payload Pool.outcome option array = Array.make n_units None in
  List.iter2 (fun (i, _, _) o -> results.(i) <- Some o) by_weight outcomes;
  (* In strict mode a cancelled unit is never the root cause; point its
     abort message at the first real failure instead. *)
  let strict_abort_message =
    if options.keep_going then None
    else
      Array.fold_left
        (fun acc slot ->
          match (acc, slot) with
          | Some _, _ -> acc
          | None, Some { Pool.value = Error f; _ } when f <> Pool.Cancelled ->
            Some (Pool.failure_to_string f)
          | None, _ -> None)
        None results
  in
  let failures = ref [] in
  let cursor = ref 0 in
  List.iter
    (fun (sp, items) ->
      let experiment = sp.sp_name in
      let body () =
        let successes = ref [] in
        let strict_failure = ref None in
        let fail ?(cancelled = false) bench message =
          if options.keep_going then begin
            Printf.printf "!! %s%s FAILED: %s\n" experiment
              (match bench with Some b -> " [" ^ b ^ "]" | None -> "")
              message;
            failures := { experiment; bench; message } :: !failures
          end
          else if !strict_failure = None then
            strict_failure :=
              Some
                (if cancelled then
                   Option.value strict_abort_message ~default:message
                 else message)
        in
        List.iter
          (fun item ->
            match item with
            | Skip (bench, message) -> fail bench message
            | Run u ->
              let o =
                match results.(!cursor) with Some o -> o | None -> assert false
              in
              incr cursor;
              (match o.Pool.value with
              | Ok payload ->
                if !strict_failure = None then begin
                  print_string o.Pool.output;
                  successes := (u.u_bench, u.u_tag, payload) :: !successes
                end
              | Error f ->
                if !strict_failure = None then print_string o.Pool.output;
                fail
                  ~cancelled:(f = Pool.Cancelled)
                  u.u_bench (Pool.failure_to_string f)))
          items;
        match !strict_failure with
        | Some message -> failwith message
        | None -> sp.sp_render ctx (List.rev !successes)
      in
      match Span.with_ experiment body with
      | () -> ()
      | exception e when options.keep_going ->
        let message = message_of e in
        Printf.printf "!! %s FAILED: %s\n" experiment message;
        failures := { experiment; bench = None; message } :: !failures)
    built;
  List.rev !failures

let run_one options spec = run_specs options [ spec ]

let table1 options = run_one options spec_table1

let characterize options = run_one options spec_characterize

let figure5 options = run_one options spec_figure5

let figure6 options = run_one options spec_figure6

let padding options = run_one options spec_padding

let setassoc options = run_one options spec_setassoc

let ablation options = run_one options spec_ablation

let splitting options = run_one options spec_splitting

let paging options = run_one options spec_paging

let sampling options = run_one options spec_sampling

let blocks options = run_one options spec_blocks

let online options = run_one options spec_online

let headroom options = run_one options spec_headroom

let hierarchy options = run_one options spec_hierarchy

let sweep options = run_one options spec_sweep

let all options =
  run_specs options
    [
      spec_table1;
      spec_characterize;
      spec_figure5;
      spec_figure6;
      spec_padding;
      spec_setassoc;
      spec_ablation;
      spec_splitting;
      spec_paging;
      spec_sampling;
      spec_blocks;
      spec_online;
      spec_headroom;
      spec_hierarchy;
      spec_sweep;
    ]

let print_summary failures =
  match failures with
  | [] -> ()
  | _ ->
    Printf.printf "\n%d experiment step(s) failed:\n" (List.length failures);
    List.iter
      (fun { experiment; bench; message } ->
        Printf.printf "  %-12s %-8s %s\n" experiment
          (match bench with Some b -> b | None -> "-")
          message)
      failures
