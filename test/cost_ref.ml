(* Reference models of the set-range arithmetic: the cost models, the
   Figure 6 metrics and the annealer's objective as the library computed
   them before one [Trg_place.Geometry] kernel replaced their five copies
   of "which cache sets does this block cover".  They are deliberately
   naive: a closure and a [mod] per cache line ([iter_lines]), two
   [Hashtbl]s of member offsets per cost call ([offsets_of_node]), one
   [Bytes] bitmap per block in the metrics, and lists of interval pieces
   in the annealer.  The set-associative models are kept verbatim, so a
   rewrite of their inner loops can be checked against them bit for bit.
   Tests only. *)

module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Layout = Trg_program.Layout
module Config = Trg_cache.Config
module Graph = Trg_profile.Graph
module Pair_db = Trg_profile.Pair_db
module Tuple_db = Trg_profile.Tuple_db
module Node = Trg_place.Node
module Gbsc = Trg_place.Gbsc
module Trg = Trg_profile.Trg

type model = Trg_place.Cost.model =
  | Trg_chunks of { chunks : Chunk.t; trg : Graph.t }
  | Wcg_procs of { wcg : Graph.t }
  | Sa_pairs of { chunks : Chunk.t; db : Pair_db.t }
  | Sa_tuples of { chunks : Chunk.t; db : Tuple_db.t }
  | Blend of (model * float) list

(* --- Cost.offsets_cost ------------------------------------------------ *)

let iter_lines ~line_size ~n_sets ~start_set ~bytes f =
  let lines = (bytes + line_size - 1) / line_size in
  let count = min lines n_sets in
  for j = 0 to count - 1 do
    f ((start_set + j) mod n_sets)
  done

(* Set index of the first line of chunk [c] when its owner starts at cache
   set [owner_set]. *)
let chunk_start_set chunks ~line_size ~n_sets ~owner_set c =
  let lines_per_chunk = Chunk.chunk_size chunks / line_size in
  (owner_set + (Chunk.index_in_proc chunks c * lines_per_chunk)) mod n_sets

let offsets_of_node node =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (p, off) -> Hashtbl.replace tbl p off) (Node.members node);
  tbl

let cost_trg_chunks chunks trg program ~line_size ~n_sets ~n1 ~n2 cost =
  ignore program;
  let in1 = offsets_of_node n1 in
  (* Visit each cross edge once, from the n2 side. *)
  List.iter
    (fun (p2, o2) ->
      let first2 = Chunk.first chunks p2 in
      for k2 = 0 to Chunk.n_chunks chunks p2 - 1 do
        let c2 = first2 + k2 in
        let s2 =
          chunk_start_set chunks ~line_size ~n_sets ~owner_set:o2 c2
        in
        Graph.iter_neighbors trg c2 (fun c1 e ->
            let p1 = Chunk.owner chunks c1 in
            match Hashtbl.find_opt in1 p1 with
            | None -> ()
            | Some o1 ->
              let w = Graph.edge_weight trg e in
              let s1 =
                chunk_start_set chunks ~line_size ~n_sets ~owner_set:o1 c1
              in
              iter_lines ~line_size ~n_sets ~start_set:s1
                ~bytes:(Chunk.size_of chunks c1) (fun l1 ->
                  iter_lines ~line_size ~n_sets ~start_set:s2
                    ~bytes:(Chunk.size_of chunks c2) (fun l2 ->
                      let i = (l1 - l2 + n_sets) mod n_sets in
                      cost.(i) <- cost.(i) +. w)))
      done)
    (Node.members n2)

let cost_wcg_procs wcg program ~line_size ~n_sets ~n1 ~n2 cost =
  let in1 = offsets_of_node n1 in
  List.iter
    (fun (p2, o2) ->
      Graph.iter_neighbors wcg p2 (fun p1 e ->
          match Hashtbl.find_opt in1 p1 with
          | None -> ()
          | Some o1 ->
            let w = Graph.edge_weight wcg e in
            iter_lines ~line_size ~n_sets ~start_set:o1
              ~bytes:(Program.size program p1) (fun l1 ->
                iter_lines ~line_size ~n_sets ~start_set:o2
                  ~bytes:(Program.size program p2) (fun l2 ->
                    let i = (l1 - l2 + n_sets) mod n_sets in
                    cost.(i) <- cost.(i) +. w))))
    (Node.members n2)

(* Set-associative pair cost: D(p, {r, s}) is charged at offset i only when
   p, r and s all map to the same cache set.  For each line triple
   (lp, lr, ls) of the three blocks, lines in n1 are fixed while lines in
   n2 shift by the candidate offset; the triple determines either a single
   chargeable offset or (when all three blocks sit in the same node) none
   that this merge can influence.  Beyond the paper's "p against all pairs
   of the other node", we also charge mixed pairs with one member in each
   node — the estimate is strictly more complete and reuses the same
   database. *)
let cost_sa_pairs chunks db program ~line_size ~n_sets ~n1 ~n2 cost =
  ignore program;
  let in1 = offsets_of_node n1 and in2 = offsets_of_node n2 in
  (* (set index, shifts?) of a chunk, or None if its owner is unplaced. *)
  let locate c =
    let p = Chunk.owner chunks c in
    match Hashtbl.find_opt in1 p with
    | Some o -> Some (chunk_start_set chunks ~line_size ~n_sets ~owner_set:o c, false)
    | None -> (
      match Hashtbl.find_opt in2 p with
      | Some o ->
        Some (chunk_start_set chunks ~line_size ~n_sets ~owner_set:o c, true)
      | None -> None)
  in
  let lines c start f =
    iter_lines ~line_size ~n_sets ~start_set:start ~bytes:(Chunk.size_of chunks c) f
  in
  let charge_chunk c =
    match locate c with
    | None -> ()
    | Some (sp, p_shifts) ->
      Pair_db.iter_p db c (fun r s w ->
          match (locate r, locate s) with
          | Some (sr, r_shifts), Some (ss, s_shifts) ->
            if not (p_shifts && r_shifts && s_shifts)
               && (p_shifts || r_shifts || s_shifts)
            then
              (* At least one block on each side: the triple constrains a
                 single offset per line combination.  Same-set equality
                 within one side must already hold; the cross-side pair
                 fixes i. *)
              lines c sp (fun lp ->
                  lines r sr (fun lr ->
                      lines s ss (fun ls ->
                          (* Shifted lines get +i; require all three equal. *)
                          let fixed = ref [] and moving = ref [] in
                          let put shifts l =
                            if shifts then moving := l :: !moving
                            else fixed := l :: !fixed
                          in
                          put p_shifts lp;
                          put r_shifts lr;
                          put s_shifts ls;
                          match (!fixed, !moving) with
                          | f :: frest, m :: mrest
                            when List.for_all (fun l -> l = f) frest
                                 && List.for_all (fun l -> l = m) mrest ->
                            let i = (f - m + n_sets) mod n_sets in
                            cost.(i) <- cost.(i) +. w
                          | _ -> ())))
          | None, _ | _, None -> ())
  in
  let charge_node node =
    List.iter
      (fun (p, _) ->
        let first = Chunk.first chunks p in
        for k = 0 to Chunk.n_chunks chunks p - 1 do
          charge_chunk (first + k)
        done)
      (Node.members node)
  in
  (* Visit p on both sides; pairs are then located wherever they live.  A
     triple entirely within one node contributes nothing (guarded above). *)
  charge_node n1;
  charge_node n2

(* Generalised tuple cost: D(p, S) is charged at offset i when p and every
   member of S map to one set.  Members on the fixed side must already
   share a set, likewise the moving side; each (fixed set, moving set)
   combination determines one offset.  Intersecting the members'
   set-lists keeps this linear in chunk lines rather than exponential in
   the tuple size. *)
let cost_sa_tuples chunks db program ~line_size ~n_sets ~n1 ~n2 cost =
  ignore program;
  let in1 = offsets_of_node n1 and in2 = offsets_of_node n2 in
  let locate c =
    let p = Chunk.owner chunks c in
    match Hashtbl.find_opt in1 p with
    | Some o -> Some (chunk_start_set chunks ~line_size ~n_sets ~owner_set:o c, false)
    | None -> (
      match Hashtbl.find_opt in2 p with
      | Some o ->
        Some (chunk_start_set chunks ~line_size ~n_sets ~owner_set:o c, true)
      | None -> None)
  in
  let set_list c start =
    let acc = ref [] in
    iter_lines ~line_size ~n_sets ~start_set:start
      ~bytes:(Chunk.size_of chunks c) (fun s -> acc := s :: !acc);
    List.sort_uniq compare !acc
  in
  let intersect a b = List.filter (fun x -> List.mem x b) a in
  let charge_chunk c =
    match locate c with
    | None -> ()
    | Some (sp, p_shifts) ->
      Tuple_db.iter_p db c (fun ids w ->
          let rec gather fixed moving = function
            | [] -> Some (fixed, moving)
            | (m, lines, shifts) :: rest ->
              ignore m;
              if shifts then gather fixed (lines :: moving) rest
              else gather (lines :: fixed) moving rest
          in
          let members =
            List.filter_map
              (fun m ->
                match locate m with
                | Some (s, shifts) -> Some (m, set_list m s, shifts)
                | None -> None)
              ids
          in
          if List.length members = List.length ids then begin
            let p_lines = set_list c sp in
            let start =
              if p_shifts then ([], [ p_lines ]) else ([ p_lines ], [])
            in
            match gather (fst start) (snd start) members with
            | Some (fixed, moving) when fixed <> [] && moving <> [] ->
              let inter = function
                | [] -> []
                | first :: rest -> List.fold_left intersect first rest
              in
              let fi = inter fixed and mi = inter moving in
              List.iter
                (fun lf ->
                  List.iter
                    (fun lm ->
                      let i = (lf - lm + n_sets) mod n_sets in
                      cost.(i) <- cost.(i) +. w)
                    mi)
                fi
            | Some _ | None -> ()
          end)
  in
  let charge_node node =
    List.iter
      (fun (p, _) ->
        let first = Chunk.first chunks p in
        for k = 0 to Chunk.n_chunks chunks p - 1 do
          charge_chunk (first + k)
        done)
      (Node.members node)
  in
  charge_node n1;
  charge_node n2

let rec offsets_cost model program ~line_size ~n_sets ~n1 ~n2 =
  let cost = Array.make n_sets 0. in
  (match model with
  | Trg_chunks { chunks; trg } ->
    cost_trg_chunks chunks trg program ~line_size ~n_sets ~n1 ~n2 cost
  | Wcg_procs { wcg } -> cost_wcg_procs wcg program ~line_size ~n_sets ~n1 ~n2 cost
  | Sa_pairs { chunks; db } ->
    cost_sa_pairs chunks db program ~line_size ~n_sets ~n1 ~n2 cost
  | Sa_tuples { chunks; db } ->
    cost_sa_tuples chunks db program ~line_size ~n_sets ~n1 ~n2 cost
  | Blend parts ->
    (* Sub-model magnitudes are incommensurable (tuple counts vs edge
       weights), so each sub-cost is normalised to unit mass before
       weighting: the blend weights express relative influence. *)
    List.iter
      (fun (sub, weight) ->
        let sub_cost = offsets_cost sub program ~line_size ~n_sets ~n1 ~n2 in
        let total = Array.fold_left ( +. ) 0. sub_cost in
        if total > 0. then
          Array.iteri
            (fun i c -> cost.(i) <- cost.(i) +. (weight *. c /. total))
            sub_cost)
      parts);
  cost

let node_occupancy program ~line_size ~n_sets node =
  let occ = Array.make n_sets false in
  List.iter
    (fun (p, off) ->
      iter_lines ~line_size ~n_sets ~start_set:off ~bytes:(Program.size program p)
        (fun s -> occ.(s) <- true))
    (Node.members node);
  occ

(* --- Metric ------------------------------------------------------------ *)

(* Occupancy bitmap over cache sets for a byte range starting at [addr]. *)
let occupancy ~line_size ~n_sets ~addr ~bytes =
  let sets = Bytes.make n_sets '\000' in
  let start = addr / line_size in
  let lines = (addr + bytes - 1) / line_size - start + 1 in
  for j = 0 to min lines n_sets - 1 do
    Bytes.set sets ((start + j) mod n_sets) '\001'
  done;
  sets

let shared a b =
  let count = ref 0 in
  Bytes.iteri
    (fun i ca -> if ca = '\001' && Bytes.get b i = '\001' then incr count)
    a;
  !count

let trg_place program ~chunks ~trg ~cache layout =
  ignore program;
  let line_size = cache.Config.line_size in
  let n_sets = Config.n_sets cache in
  let chunk_addr c =
    let p = Chunk.owner chunks c in
    Layout.address layout p + (Chunk.index_in_proc chunks c * Chunk.chunk_size chunks)
  in
  let occ = Hashtbl.create 1024 in
  let occupancy_of c =
    match Hashtbl.find_opt occ c with
    | Some o -> o
    | None ->
      let o =
        occupancy ~line_size ~n_sets ~addr:(chunk_addr c)
          ~bytes:(Chunk.size_of chunks c)
      in
      Hashtbl.add occ c o;
      o
  in
  let total = ref 0. in
  Graph.iter_edges
    (fun c1 c2 w ->
      let s = shared (occupancy_of c1) (occupancy_of c2) in
      if s > 0 then total := !total +. (w *. float_of_int s))
    trg;
  !total

let wcg program ~wcg ~cache layout =
  let line_size = cache.Config.line_size in
  let n_sets = Config.n_sets cache in
  let occ = Hashtbl.create 256 in
  let occupancy_of p =
    match Hashtbl.find_opt occ p with
    | Some o -> o
    | None ->
      let o =
        occupancy ~line_size ~n_sets ~addr:(Layout.address layout p)
          ~bytes:(Program.size program p)
      in
      Hashtbl.add occ p o;
      o
  in
  let total = ref 0. in
  Graph.iter_edges
    (fun p q w ->
      let s = shared (occupancy_of p) (occupancy_of q) in
      if s > 0 then total := !total +. (w *. float_of_int s))
    wcg;
  !total

(* --- Anneal's objective ------------------------------------------------ *)

(* One inter-procedure TRG_place edge, with the chunks' owner-relative line
   positions precomputed. *)
type edge = {
  p1 : int;
  p2 : int;
  rel1 : int; (* line index of chunk 1 within its procedure *)
  len1 : int; (* lines the chunk spans *)
  rel2 : int;
  len2 : int;
  w : float;
}

type search_state = {
  n_sets : int;
  offsets : (int, int) Hashtbl.t; (* proc -> current set offset *)
  edges : edge array;
  incident : (int, int list) Hashtbl.t; (* proc -> edge indices *)
}

(* Shared cache sets between two line intervals [a, a+la) and [b, b+lb)
   modulo n_sets.  Intervals are at most n_sets long. *)
let shared_sets ~n_sets a la b lb =
  let la = min la n_sets and lb = min lb n_sets in
  (* Overlap of two circular intervals = sum over the two linearisations. *)
  let overlap_linear x lx y ly =
    let lo = max x y and hi = min (x + lx) (y + ly) in
    max 0 (hi - lo)
  in
  if la = n_sets then lb
  else if lb = n_sets then la
  else begin
    let a = a mod n_sets and b = b mod n_sets in
    (* Split each interval at the wrap point and intersect the pieces. *)
    let pieces x lx =
      if x + lx <= n_sets then [ (x, lx) ]
      else [ (x, n_sets - x); (0, x + lx - n_sets) ]
    in
    List.fold_left
      (fun acc (x, lx) ->
        List.fold_left
          (fun acc (y, ly) -> acc + overlap_linear x lx y ly)
          acc (pieces b lb))
      0 (pieces a la)
  end

let edge_cost st e =
  match (Hashtbl.find_opt st.offsets e.p1, Hashtbl.find_opt st.offsets e.p2) with
  | Some o1, Some o2 ->
    let s =
      shared_sets ~n_sets:st.n_sets
        ((o1 + e.rel1) mod st.n_sets)
        e.len1
        ((o2 + e.rel2) mod st.n_sets)
        e.len2
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
  let line_size = cache.Config.line_size in
  let chunks = profile.Gbsc.chunks in
  let lines_per_chunk = Chunk.chunk_size chunks / line_size in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (p, o) -> Hashtbl.replace tbl p (o mod n_sets)) offsets;
  let edges = ref [] in
  Graph.iter_edges
    (fun c1 c2 w ->
      let p1 = Chunk.owner chunks c1 and p2 = Chunk.owner chunks c2 in
      if p1 <> p2 && Hashtbl.mem tbl p1 && Hashtbl.mem tbl p2 then
        edges :=
          {
            p1;
            p2;
            rel1 = Chunk.index_in_proc chunks c1 * lines_per_chunk;
            len1 = (Chunk.size_of chunks c1 + line_size - 1) / line_size;
            rel2 = Chunk.index_in_proc chunks c2 * lines_per_chunk;
            len2 = (Chunk.size_of chunks c2 + line_size - 1) / line_size;
            w;
          }
          :: !edges)
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
  { n_sets; offsets = tbl; edges; incident }

let anneal_cost config program ~profile ~offsets =
  total_cost (build_state config program profile offsets)
