module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Graph = Trg_profile.Graph
module Pair_db = Trg_profile.Pair_db

module Tuple_db = Trg_profile.Tuple_db

type model =
  | Trg_chunks of { chunks : Chunk.t; trg : Graph.t }
  | Wcg_procs of { wcg : Graph.t }
  | Sa_pairs of { chunks : Chunk.t; db : Pair_db.t }
  | Sa_tuples of { chunks : Chunk.t; db : Tuple_db.t }
  | Blend of (model * float) list

(* A model bound to its geometry.  The chunk TRG and the WCG are one
   graph model, over chunks and over procedures. *)
type eval =
  | Graph_cost of Geometry.t * Graph.t
  | Pairs of Geometry.t * Pair_db.t
  | Tuples of Geometry.t * Tuple_db.t
  | Blend_cost of (eval * float) list

(* During one evaluation, [side.(p)] is 1 for a member of the fixed
   node, 2 for one of the moving node and 0 otherwise, and [off.(p)] is
   a member's offset.  The incremental engine reads neither, so both are
   empty until the first evaluation.  [procs] is the per-procedure
   geometry. *)
type t = {
  n_sets : int;
  n_procs : int;
  mutable side : int array;
  mutable off : int array;
  procs : Geometry.t Lazy.t;
  eval : eval;
}

let prepare model program ~line_size ~n_sets =
  let procs = lazy (Geometry.of_procs program ~line_size ~n_sets) in
  let chunk_geometry chunks = Geometry.of_chunks chunks ~line_size ~n_sets in
  let rec eval = function
    | Trg_chunks { chunks; trg } -> Graph_cost (chunk_geometry chunks, trg)
    | Wcg_procs { wcg } -> Graph_cost (Lazy.force procs, wcg)
    | Sa_pairs { chunks; db } -> Pairs (chunk_geometry chunks, db)
    | Sa_tuples { chunks; db } -> Tuples (chunk_geometry chunks, db)
    | Blend parts -> Blend_cost (List.map (fun (sub, w) -> (eval sub, w)) parts)
  in
  {
    n_sets;
    n_procs = Program.n_procs program;
    side = [||];
    off = [||];
    procs;
    eval = eval model;
  }

let cost_graph t (g : Geometry.t) graph ~n2 cost =
  (* Visit each cross edge once, from the n2 side. *)
  List.iter
    (fun (p2, o2) ->
      for b2 = g.proc_first.(p2) to g.proc_first.(p2 + 1) - 1 do
        let s2 = Geometry.start_set g ~owner_set:o2 b2 and l2 = g.lines.(b2) in
        Graph.iter_neighbors graph b2 (fun b1 e ->
            let p1 = g.owner.(b1) in
            if t.side.(p1) = 1 then
              Geometry.correlate g cost ~w:(Graph.edge_weight graph e)
                (Geometry.start_set g ~owner_set:t.off.(p1) b1)
                g.lines.(b1) s2 l2)
      done)
    (Node.members n2)

(* (set index, shifts?) of block [c]'s first line, or None if its owner
   is in neither node. *)
let locate t g c =
  let p = g.Geometry.owner.(c) in
  match t.side.(p) with
  | 0 -> None
  | side -> Some (Geometry.start_set g ~owner_set:t.off.(p) c, side = 2)

let iter_blocks (g : Geometry.t) node f =
  List.iter
    (fun (p, _) ->
      for c = g.proc_first.(p) to g.proc_first.(p + 1) - 1 do
        f c
      done)
    (Node.members node)

(* Set-associative pair cost: D(p, {r, s}) is charged at offset i only when
   p, r and s all map to the same cache set.  For each line triple
   (lp, lr, ls) of the three blocks, lines in n1 are fixed while lines in
   n2 shift by the candidate offset; the triple determines either a single
   chargeable offset or (when all three blocks sit in the same node) none
   that this merge can influence.  Beyond the paper's "p against all pairs
   of the other node", we also charge mixed pairs with one member in each
   node — the estimate is strictly more complete and reuses the same
   database. *)
let cost_sa_pairs t g db ~n1 ~n2 cost =
  let n_sets = t.n_sets in
  let lines c start f = Geometry.iter_sets g start g.Geometry.lines.(c) f in
  let charge_chunk c =
    match locate t g c with
    | None -> ()
    | Some (sp, p_shifts) ->
      Pair_db.iter_p db c (fun r s w ->
          match (locate t g r, locate t g s) with
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
  (* Visit p on both sides; pairs are then located wherever they live.  A
     triple entirely within one node contributes nothing (guarded above). *)
  iter_blocks g n1 charge_chunk;
  iter_blocks g n2 charge_chunk

(* Generalised tuple cost: D(p, S) is charged at offset i when p and every
   member of S map to one set.  Members on the fixed side must already
   share a set, likewise the moving side; each (fixed set, moving set)
   combination determines one offset.  Intersecting the members'
   set-lists keeps this linear in chunk lines rather than exponential in
   the tuple size. *)
let cost_sa_tuples t g db ~n1 ~n2 cost =
  let n_sets = t.n_sets in
  let set_list c start =
    let acc = ref [] in
    Geometry.iter_sets g start g.Geometry.lines.(c) (fun s -> acc := s :: !acc);
    List.sort_uniq compare !acc
  in
  let intersect a b = List.filter (fun x -> List.mem x b) a in
  let charge_chunk c =
    match locate t g c with
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
                match locate t g m with
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
  iter_blocks g n1 charge_chunk;
  iter_blocks g n2 charge_chunk

let rec eval_cost t eval ~n1 ~n2 =
  let cost = Array.make t.n_sets 0. in
  (match eval with
  | Graph_cost (g, graph) -> cost_graph t g graph ~n2 cost
  | Pairs (g, db) -> cost_sa_pairs t g db ~n1 ~n2 cost
  | Tuples (g, db) -> cost_sa_tuples t g db ~n1 ~n2 cost
  | Blend_cost parts ->
    (* Sub-model magnitudes are incommensurable (tuple counts vs edge
       weights), so each sub-cost is normalised to unit mass before
       weighting: the blend weights express relative influence. *)
    List.iter
      (fun (sub, weight) ->
        let sub_cost = eval_cost t sub ~n1 ~n2 in
        let total = Array.fold_left ( +. ) 0. sub_cost in
        if total > 0. then
          Array.iteri
            (fun i c -> cost.(i) <- cost.(i) +. (weight *. c /. total))
            sub_cost)
      parts);
  cost

let mark t side = List.iter (fun (p, o) -> t.side.(p) <- side; t.off.(p) <- o)

let offsets_cost t ~n1 ~n2 =
  if Array.length t.side < t.n_procs then begin
    t.side <- Array.make t.n_procs 0;
    t.off <- Array.make t.n_procs 0
  end;
  mark t 1 (Node.members n1);
  mark t 2 (Node.members n2);
  Fun.protect
    ~finally:(fun () -> mark t 0 (Node.members n1); mark t 0 (Node.members n2))
    (fun () -> eval_cost t t.eval ~n1 ~n2)

(* --- cost engines ----------------------------------------------------- *)

type engine_kind = Full | Incr

(* Process-global selection, set once at CLI parse time (before the
   evaluation pool forks, so workers inherit it).  Incr is the default:
   it falls back to Full by itself whenever a model is out of scope. *)
let engine_ref = ref Incr

let set_engine k = engine_ref := k

let engine () = !engine_ref

let engine_name = function Full -> "full" | Incr -> "incr"

let engine_of_name = function
  | "full" -> Full
  | "incr" -> Incr
  | s -> invalid_arg (Printf.sprintf "Cost.engine_of_name: %S" s)

let m_fallbacks = Trg_obs.Metrics.counter "cost/incr/fallbacks"

(* Hot-path profile: whole-seed wall time, lazily registered so [prof/*]
   stays out of the registry unless [--profile] observed something. *)
let h_seed_us =
  lazy
    (Trg_obs.Metrics.histogram ~limits:Trg_obs.Prof.us_limits
       "prof/incr/seed_us")

(* Seeding charges every inter-procedure profile edge at the
   all-singletons starting position (every node at offset 0, exactly
   [Merge_driver]'s initial state).  One edge between a block of [l1]
   lines starting at set [s1] and a block of [l2] lines at [s2]
   contributes, over the offsets, the circular cross-correlation of the
   two line intervals — a trapezoid whose {e second difference} is just
   four spikes, at base + {0, l1, l2, l1+l2} with base < n_sets and
   l1, l2 <= n_sets.  Accumulating one procedure pair's spikes in a
   3C+1 buffer and integrating twice makes seeding O(1) per edge plus
   O(support) per pair, instead of O(l1 x l2) per edge.  Exactness is
   preserved: every integrated value is the integral per-cell total the
   full evaluator would sum to.

   The edges are bucketed by procedure pair first — [Graph.Counts]'s
   open-addressing table, keyed by the packed pair, numbers the pairs in
   first-seen order, and a counting sort groups each pair's edges — so a
   single scratch buffer serves the whole seeding: each pair's spikes
   land in it, and {!Trg_cache.Incr.seed_pair} integrates them into the
   pair's array and clears it. *)

(* [Float.is_integer], inlined: a call to it boxes its argument. *)
let[@inline] is_integer w = w = Float.trunc w && w -. w = 0.

(* [owner], [start] and [lines] are the geometry's arrays: each graph
   node's procedure, first cache set at offset 0 and line count.  Edges
   are read by number, so no weight is boxed. *)
let seed_graph graph ~owner ~start ~lines ~n_sets =
  let n_edges = Graph.n_edges graph and weights = Graph.weights graph in
  (* Numbers the procedure pairs in first-seen order and counts their
     edges.  Sized for a quarter as many pairs as edges (the dense chunk
     TRGs have 5 to 9 edges per pair), so the table seldom grows. *)
  let pairs = Graph.Counts.create ~hint:(n_edges / 4) () in
  (* Each edge's pair number, or -1 for a same-owner edge: those are
     intra-node from the first merge to the last, and the full evaluator
     never charges them either. *)
  let e_pair = Array.make n_edges (-1) in
  let integral = ref true in
  for e = 0 to n_edges - 1 do
    let x = Graph.edge_ends graph e in
    let pu = owner.(x lsr 24) and pv = owner.(x land 0xFFFFFF) in
    if pu <> pv then begin
      if not (is_integer weights.(e)) then integral := false;
      e_pair.(e) <- Graph.Counts.number pairs pu pv
    end
  done;
  if not !integral then None
  else begin
    (* Counting sort by pair number; pair q's edges are
       [order.(first.(q) .. first.(q + 1) - 1)]. *)
    let n_pairs = Graph.Counts.length pairs in
    let first = Array.make (n_pairs + 1) 0 in
    for q = 0 to n_pairs - 1 do
      first.(q + 1) <- first.(q) + Graph.Counts.count pairs q
    done;
    let next = Array.sub first 0 n_pairs in
    let order = Array.make first.(n_pairs) 0 in
    for e = 0 to n_edges - 1 do
      let q = e_pair.(e) in
      if q >= 0 then begin
        order.(next.(q)) <- e;
        next.(q) <- next.(q) + 1
      end
    done;
    let t = Trg_cache.Incr.create ~n_sets ~pairs:n_pairs in
    let dd = Array.make ((3 * n_sets) + 1) 0. in
    for q = 0 to n_pairs - 1 do
      let lo = ref max_int and hi = ref 0 in
      for r = first.(q) to first.(q + 1) - 1 do
        let e = order.(r) in
        let x = Graph.edge_ends graph e in
        (* The lower-numbered procedure's node is [a]. *)
        let u = x lsr 24 and v = x land 0xFFFFFF in
        let u_first = owner.(u) < owner.(v) in
        let a = if u_first then u else v and b = if u_first then v else u in
        let la = lines.(a) and lb = lines.(b) and w = weights.(e) in
        let base = (start.(a) - start.(b) - (lb - 1) + (2 * n_sets)) mod n_sets in
        dd.(base) <- dd.(base) +. w;
        dd.(base + la) <- dd.(base + la) -. w;
        dd.(base + lb) <- dd.(base + lb) -. w;
        dd.(base + la + lb) <- dd.(base + la + lb) +. w;
        if base < !lo then lo := base;
        if base + la + lb > !hi then hi := base + la + lb
      done;
      let x = Graph.edge_ends graph order.(first.(q)) in
      let pu = owner.(x lsr 24) and pv = owner.(x land 0xFFFFFF) in
      Trg_cache.Incr.seed_pair t ~p1:(Int.min pu pv) ~p2:(Int.max pu pv) dd ~lo:!lo
        ~hi:!hi
    done;
    Trg_cache.Incr.freeze t;
    Some t
  end

(* Seed an incremental engine for a model, or [None] when the model is
   out of scope.  Only the group-decomposable graph model qualifies: the
   set-associative databases charge triples/tuples (not pairwise-linear
   in the group split) and Blend renormalises sub-costs per query
   (nonlinear), so those fall back to the full evaluator — as does any
   non-integral profile weight (perturbed graphs), which would void the
   bit-identity guarantee.  Edge weights are the only values seeding
   reads, so checking each one covers every value it writes. *)
let seed_incr_untimed t =
  let seeded =
    match t.eval with
    | Graph_cost (g, graph) ->
      seed_graph graph ~n_sets:g.n_sets ~owner:g.owner ~start:g.first ~lines:g.lines
    | Pairs _ | Tuples _ | Blend_cost _ -> None
  in
  if Option.is_none seeded then Trg_obs.Metrics.incr m_fallbacks;
  seeded

let seed_incr t =
  if not (Trg_obs.Prof.enabled ()) then seed_incr_untimed t
  else begin
    let t0 = Trg_util.Clock.monotonic () in
    let r = seed_incr_untimed t in
    Trg_obs.Metrics.observe (Lazy.force h_seed_us)
      (1e6 *. (Trg_util.Clock.monotonic () -. t0));
    r
  end

let best_offset (cost : float array) =
  let best = ref 0 in
  for i = 1 to Array.length cost - 1 do
    if cost.(i) < cost.(!best) then best := i
  done;
  !best

let occupancy t node =
  let g = Lazy.force t.procs and occ = Array.make t.n_sets false in
  List.iter
    (fun (p, o) ->
      Geometry.iter_sets g (Geometry.start_set g ~owner_set:o p) g.lines.(p) (fun s ->
          occ.(s) <- true))
    (Node.members node);
  occ

let best_offset_packed (cost : float array) ~n1 ~n2 =
  let n_sets = Array.length cost in
  let overlap i =
    let count = ref 0 in
    for s = 0 to n_sets - 1 do
      if n2.(s) && n1.((s + i) mod n_sets) then incr count
    done;
    !count
  in
  let best = ref 0 and best_overlap = ref (overlap 0) in
  for i = 1 to n_sets - 1 do
    if cost.(i) < cost.(!best) then begin
      best := i;
      best_overlap := overlap i
    end
    else if cost.(i) = cost.(!best) then begin
      let o = overlap i in
      if o < !best_overlap then begin
        best := i;
        best_overlap := o
      end
    end
  done;
  !best
