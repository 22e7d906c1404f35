module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Tstats = Trg_trace.Tstats
module Trg = Trg_profile.Trg
module Pair_db = Trg_profile.Pair_db
module Popularity = Trg_profile.Popularity

type profile = {
  config : Gbsc.config;
  popularity : Popularity.t;
  chunks : Chunk.t;
  select : Trg.built;
  pairs : Pair_db.built;
}

let profile ?max_between (config : Gbsc.config) program trace =
  let tstats = Tstats.compute ~n_procs:(Program.n_procs program) trace in
  let popularity =
    Popularity.select ~coverage:config.coverage ~min_refs:config.min_refs program
      tstats
  in
  let keep = Popularity.keep popularity in
  let chunks = Chunk.make ~chunk_size:config.chunk_size program in
  let select =
    Trg.build_select ~keep ~capacity_bytes:config.q_capacity program trace
  in
  let pairs =
    Pair_db.build_place ~keep ~capacity_bytes:config.q_capacity ?max_between chunks
      trace
  in
  { config; popularity; chunks; select; pairs }

let place ?decisions program (p : profile) =
  Gbsc.place_with ~algo:"gbsc-sa" ?decisions p.config program
    ~select:p.select.Trg.graph
    ~model:(Cost.Sa_pairs { chunks = p.chunks; db = p.pairs.Pair_db.db })

let run ?max_between config program trace =
  place program (profile ?max_between config program trace)

module Tuple_db = Trg_profile.Tuple_db
module Config = Trg_cache.Config

type tuple_profile = {
  tconfig : Gbsc.config;
  tpopularity : Popularity.t;
  tchunks : Chunk.t;
  tselect : Trg.built;
  tplace : Trg.built;
  tuples : Tuple_db.built;
}

let profile_tuples ?max_between ?arity (config : Gbsc.config) program trace =
  let arity =
    match arity with Some a -> a | None -> config.Gbsc.cache.Config.assoc
  in
  let tstats = Tstats.compute ~n_procs:(Program.n_procs program) trace in
  let popularity =
    Popularity.select ~coverage:config.coverage ~min_refs:config.min_refs program
      tstats
  in
  let keep = Popularity.keep popularity in
  let chunks = Chunk.make ~chunk_size:config.chunk_size program in
  let select, tplace =
    Trg.build ~keep ~capacity_bytes:config.q_capacity program chunks trace
  in
  let tuples =
    Tuple_db.build_place ~keep ~arity ~capacity_bytes:config.q_capacity
      ?max_between chunks trace
  in
  {
    tconfig = config;
    tpopularity = popularity;
    tchunks = chunks;
    tselect = select;
    tplace;
    tuples;
  }

(* The tuple database alone is sparse (high arity, capped enumeration);
   regularise it with a small share of the dense direct-mapped TRG cost so
   uninformed offsets still avoid gratuitous overlap. *)
let place_tuples ?(trg_share = 0.25) program (p : tuple_profile) =
  Gbsc.place_with ~algo:"gbsc-sa" p.tconfig program ~select:p.tselect.Trg.graph
    ~model:
      (Cost.Blend
         [
           (Cost.Sa_tuples { chunks = p.tchunks; db = p.tuples.Tuple_db.db }, 1.0);
           (Cost.Trg_chunks { chunks = p.tchunks; trg = p.tplace.Trg.graph }, trg_share);
         ])

let run_tuples ?max_between ?arity config program trace =
  place_tuples program (profile_tuples ?max_between ?arity config program trace)
