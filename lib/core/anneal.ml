module Program = Trg_program.Program
module Config = Trg_cache.Config
module Graph = Trg_profile.Graph
module Trg = Trg_profile.Trg
module Prng = Trg_util.Prng

type params = { seed : int; iterations : int; t_start : float; t_end : float }

let default_params = { seed = 1; iterations = 60_000; t_start = 0.10; t_end = 0.001 }

(* One inter-procedure TRG_place edge. *)
type edge = { c1 : int; c2 : int; p1 : int; p2 : int; w : float }

type search_state = {
  geometry : Geometry.t; (* the profile's chunks *)
  offsets : (int, int) Hashtbl.t; (* proc -> current set offset *)
  edges : edge array;
  incident : (int, int list) Hashtbl.t; (* proc -> edge indices *)
}

let edge_cost st e =
  match (Hashtbl.find_opt st.offsets e.p1, Hashtbl.find_opt st.offsets e.p2) with
  | Some o1, Some o2 ->
    let g = st.geometry in
    let s =
      Geometry.shared g
        (Geometry.start_set g ~owner_set:o1 e.c1)
        g.lines.(e.c1)
        (Geometry.start_set g ~owner_set:o2 e.c2)
        g.lines.(e.c2)
    in
    e.w *. float_of_int s
  | _ -> 0.

let total_cost st = Array.fold_left (fun acc e -> acc +. edge_cost st e) 0. st.edges

let incident_cost st p =
  match Hashtbl.find_opt st.incident p with
  | None -> 0.
  | Some idxs -> List.fold_left (fun acc i -> acc +. edge_cost st st.edges.(i)) 0. idxs

let build_state (config : Gbsc.config) program (profile : Gbsc.profile) offsets =
  ignore program;
  let cache = config.Gbsc.cache in
  let n_sets = Config.n_sets cache in
  let g =
    Geometry.of_chunks profile.Gbsc.chunks ~line_size:cache.Config.line_size ~n_sets
  in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (p, o) -> Hashtbl.replace tbl p (o mod n_sets)) offsets;
  let edges = ref [] in
  Graph.iter_edges
    (fun c1 c2 w ->
      let p1 = g.owner.(c1) and p2 = g.owner.(c2) in
      if p1 <> p2 && Hashtbl.mem tbl p1 && Hashtbl.mem tbl p2 then
        edges := { c1; c2; p1; p2; w } :: !edges)
    profile.Gbsc.place.Trg.graph;
  let edges = Array.of_list !edges in
  let incident = Hashtbl.create 64 in
  Array.iteri
    (fun i e ->
      let push p =
        Hashtbl.replace incident p
          (i :: (match Hashtbl.find_opt incident p with Some l -> l | None -> []))
      in
      push e.p1;
      push e.p2)
    edges;
  { geometry = g; offsets = tbl; edges; incident }

let gbsc_offsets config program (profile : Gbsc.profile) =
  let nodes =
    Gbsc.place_nodes config program ~select:profile.Gbsc.select.Trg.graph
      ~model:
        (Cost.Trg_chunks { chunks = profile.Gbsc.chunks; trg = profile.Gbsc.place.Trg.graph })
  in
  List.concat_map Node.members nodes

let cost config program ~profile ~offsets =
  total_cost (build_state config program profile offsets)

let place ?(params = default_params) ?init config program (profile : Gbsc.profile) =
  let rng = Prng.create params.seed in
  let n_sets = Config.n_sets config.Gbsc.cache in
  let init =
    match init with
    | Some l -> l
    | None ->
      (* Random initial offsets for every popular procedure with edges. *)
      List.map
        (fun p -> (p, Prng.int rng n_sets))
        (Graph.nodes profile.Gbsc.select.Trg.graph)
  in
  let st = build_state config program profile init in
  let procs = Array.of_list (Hashtbl.fold (fun p _ acc -> p :: acc) st.offsets []) in
  let current = ref (total_cost st) in
  let base = Float.max 1. !current in
  let best = Hashtbl.copy st.offsets in
  let best_cost = ref !current in
  if Array.length procs > 0 && Array.length st.edges > 0 then
    for i = 0 to params.iterations - 1 do
      let t =
        base *. params.t_start
        *. ((params.t_end /. params.t_start)
           ** (float_of_int i /. float_of_int params.iterations))
      in
      let p = Prng.choose rng procs in
      let old_off = Hashtbl.find st.offsets p in
      let new_off = Prng.int rng n_sets in
      if new_off <> old_off then begin
        let before = incident_cost st p in
        Hashtbl.replace st.offsets p new_off;
        let delta = incident_cost st p -. before in
        if delta <= 0. || Prng.bernoulli rng (exp (-.delta /. Float.max t 1e-9)) then begin
          current := !current +. delta;
          if !current < !best_cost then begin
            best_cost := !current;
            Hashtbl.reset best;
            Hashtbl.iter (Hashtbl.replace best) st.offsets
          end
        end
        else Hashtbl.replace st.offsets p old_off
      end
    done;
  let placed = Hashtbl.fold (fun p o acc -> (p, o) :: acc) best [] in
  let placed = List.sort compare placed in
  let in_nodes = Hashtbl.create 64 in
  List.iter (fun (p, _) -> Hashtbl.replace in_nodes p ()) placed;
  let filler = ref [] in
  for p = Program.n_procs program - 1 downto 0 do
    if not (Hashtbl.mem in_nodes p) then filler := p :: !filler
  done;
  let layout =
    Linearize.layout program
      ~line_size:config.Gbsc.cache.Config.line_size
      ~n_sets ~placed
      ~filler:(Array.of_list !filler)
  in
  (layout, !best_cost)
