module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Layout = Trg_program.Layout
module Config = Trg_cache.Config
module Graph = Trg_profile.Graph
module Trg = Trg_profile.Trg
module Popularity = Trg_profile.Popularity
module Tstats = Trg_trace.Tstats

module Log = Trg_obs.Log
module Metrics = Trg_obs.Metrics

(* Telemetry: the paper's Section 4.4 cost drivers.  A "merge step" is one
   merge_nodes application; each evaluates a full cost array over the
   [n_sets] relative offsets of the two nodes (the candidate offsets). *)
let m_merge_steps = Metrics.counter "gbsc/merge_steps"
let m_cost_calls = Metrics.counter "gbsc/cost_calls"
let m_offset_candidates = Metrics.counter "gbsc/offset_candidates"
let m_placements = Metrics.counter "gbsc/placements"
let m_profiles = Metrics.counter "gbsc/profiles"

type config = {
  cache : Config.t;
  chunk_size : int;
  q_capacity : int;
  coverage : float;
  min_refs : int;
}

let default_config ?(cache = Config.default) () =
  {
    cache;
    chunk_size = Trg.default_chunk_size;
    q_capacity = 2 * cache.Config.size;
    coverage = 0.99;
    min_refs = 2;
  }

let validate config =
  if config.chunk_size mod config.cache.Config.line_size <> 0 then
    invalid_arg "Gbsc: chunk_size must be a multiple of the cache line size";
  if config.q_capacity <= 0 then invalid_arg "Gbsc: q_capacity must be positive"

type profile = {
  config : config;
  tstats : Tstats.t;
  popularity : Popularity.t;
  chunks : Chunk.t;
  select : Trg.built;
  place : Trg.built;
}

let profile config program trace =
  validate config;
  Metrics.incr m_profiles;
  let tstats = Tstats.compute ~n_procs:(Program.n_procs program) trace in
  let popularity =
    Popularity.select ~coverage:config.coverage ~min_refs:config.min_refs program
      tstats
  in
  let keep = Popularity.keep popularity in
  let chunks = Chunk.make ~chunk_size:config.chunk_size program in
  let select, place =
    Trg.build ~keep ~capacity_bytes:config.q_capacity program chunks trace
  in
  { config; tstats; popularity; chunks; select; place }

let place_nodes ?decisions config program ~select ~model =
  validate config;
  let n_sets = Config.n_sets config.cache in
  let line_size = config.cache.Config.line_size in
  (* The pair database and the procedure-granularity WCG are sparse, so
     their cost arrays tie at zero over whole regions; break those ties by
     set-occupancy packing.  For the WCG model this matches published
     cache-line coloring, which prefers unused colours; for the pair
     database it is one of the "other heuristics" Section 6 alludes to.
     The chunk-TRG model keeps the paper's plain first-minimum rule
     (Section 4.2, note 3), which its dense cost arrays make safe. *)
  let rec sparse_model = function
    | Cost.Sa_pairs _ | Cost.Sa_tuples _ | Cost.Wcg_procs _ -> true
    | Cost.Trg_chunks _ -> false
    | Cost.Blend parts -> List.exists (fun (m, _) -> sparse_model m) parts
  in
  let packed_ties = sparse_model model in
  let cost_calls = ref 0 and offset_candidates = ref 0 in
  (* Incremental engine, when selected and the model supports it.  Group
     identity: a node's head member's procedure id.  [Merge_driver] keeps
     the bigger group as [n1] and [Node.union] keeps [n1]'s members
     first, so the head is stable across merges and the engine's
     union-find tracks node groups exactly. *)
  let evaluator = Cost.prepare model program ~line_size ~n_sets in
  let engine =
    match Cost.engine () with
    | Cost.Incr -> Cost.seed_incr evaluator
    | Cost.Full -> None
  in
  let repr n = fst (List.hd (Node.members n)) in
  let merge n1 n2 =
    let cost =
      match engine with
      | Some eng -> Trg_cache.Incr.cost eng ~fixed:(repr n1) ~moving:(repr n2)
      | None ->
        let cost = Cost.offsets_cost evaluator ~n1 ~n2 in
        incr cost_calls;
        offset_candidates := !offset_candidates + Array.length cost;
        cost
    in
    let shift =
      if packed_ties then
        Cost.best_offset_packed cost
          ~n1:(Cost.occupancy evaluator n1) ~n2:(Cost.occupancy evaluator n2)
      else Cost.best_offset cost
    in
    (match engine with
    | Some eng -> Trg_cache.Incr.apply_merge eng ~fixed:(repr n1) ~moving:(repr n2) ~shift
    | None -> ());
    if Trg_obs.Journal.recording () then
      Trg_obs.Journal.annotate ~shift ~cost:cost.(shift);
    Node.union ~shift ~modulo:n_sets n1 n2
  in
  let merges = ref 0 in
  let merge n1 n2 =
    incr merges;
    let merged = merge n1 n2 in
    Log.debug (fun m ->
        m "merge %d: %d + %d procedures" !merges (Node.size n1) (Node.size n2));
    merged
  in
  let nodes =
    Fun.protect
      ~finally:(fun () -> Option.iter Trg_cache.Incr.release engine)
      (fun () ->
        match decisions with
        | None -> Merge_driver.run ~graph:select ~init:Node.singleton ~merge
        | Some decisions ->
          Merge_driver.replay ~graph:select ~init:Node.singleton ~merge ~decisions)
  in
  Metrics.add m_merge_steps !merges;
  Metrics.add m_cost_calls !cost_calls;
  Metrics.add m_offset_candidates !offset_candidates;
  Log.info (fun m ->
      m "GBSC: merged %d popular procedures into %d nodes (%d merges)"
        (List.length (Graph.nodes select))
        (List.length nodes) !merges);
  nodes

let place_with ?affinity ?(algo = "gbsc") ?decisions config program ~select ~model =
  Metrics.incr m_placements;
  (* Decision provenance: the first placement matching the armed journal
     owns the capture; [Merge_driver] records each decision and the merge
     callback annotates the offset choice.  Unarmed runs pay one branch. *)
  let journaling =
    Trg_obs.Journal.begin_run ~algo
      ~engine:(Cost.engine_name (Cost.engine ()))
      ~cache:
        ( config.cache.Config.size,
          config.cache.Config.line_size,
          config.cache.Config.assoc )
  in
  match
    let nodes = place_nodes ?decisions config program ~select ~model in
    let placed = List.concat_map Node.members nodes in
    let in_nodes = Hashtbl.create 64 in
    List.iter (fun (p, _) -> Hashtbl.replace in_nodes p ()) placed;
    let filler = ref [] in
    for p = Program.n_procs program - 1 downto 0 do
      if not (Hashtbl.mem in_nodes p) then filler := p :: !filler
    done;
    Linearize.layout ?affinity program
      ~line_size:config.cache.Config.line_size
      ~n_sets:(Config.n_sets config.cache)
      ~placed
      ~filler:(Array.of_list !filler)
  with
  | layout ->
    if journaling then
      Trg_obs.Journal.finish ~layout_crc:(Layout.digest layout);
    layout
  | exception e ->
    if journaling then Trg_obs.Journal.abort ();
    raise e

let place ?decisions program (p : profile) =
  place_with ?decisions p.config program ~select:p.select.Trg.graph
    ~model:(Cost.Trg_chunks { chunks = p.chunks; trg = p.place.Trg.graph })

let place_paged program (p : profile) =
  let affinity = Graph.weight p.select.Trg.graph in
  place_with ~affinity p.config program ~select:p.select.Trg.graph
    ~model:(Cost.Trg_chunks { chunks = p.chunks; trg = p.place.Trg.graph })

let run config program trace = place program (profile config program trace)
