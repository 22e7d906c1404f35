module Layout = Trg_program.Layout
module Config = Trg_cache.Config
module Graph = Trg_profile.Graph

(* Sum over the graph's edges (b1, b2, w) of [w] times the sets both
   blocks cover where the layout puts them. *)
let conflicts (g : Geometry.t) graph layout =
  let total = ref 0. in
  Graph.iter_edges
    (fun b1 b2 w ->
      let a1 = Layout.address layout g.owner.(b1)
      and a2 = Layout.address layout g.owner.(b2) in
      let s =
        Geometry.shared g
          (Geometry.placed_start g ~address:a1 b1)
          (Geometry.placed_lines g ~address:a1 b1)
          (Geometry.placed_start g ~address:a2 b2)
          (Geometry.placed_lines g ~address:a2 b2)
      in
      if s > 0 then total := !total +. (w *. float_of_int s))
    graph;
  !total

let trg_place _program ~chunks ~trg ~(cache : Config.t) layout =
  let n_sets = Config.n_sets cache in
  conflicts (Geometry.of_chunks chunks ~line_size:cache.line_size ~n_sets) trg layout

let wcg program ~wcg ~(cache : Config.t) layout =
  let n_sets = Config.n_sets cache in
  conflicts (Geometry.of_procs program ~line_size:cache.line_size ~n_sets) wcg layout
