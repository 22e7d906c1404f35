(** Conflict-cost evaluation of relative node alignments (Section 4.2,
    Figure 4).

    [merge_nodes] must score every possible relative cache offset of one
    node's layout against another's.  The paper's pseudo-code walks the
    C x C combinations of cache lines; we compute the identical cost array
    edge-wise: a profile edge between a block at (mod-cache) line [l1] in
    node n1 and a block at line [l2] in node n2 contributes its weight to
    exactly the offsets [i] with [l1 = (l2 + i) mod C] — that is, to
    [cost.((l1 - l2) mod C)] ({!Geometry.correlate}).

    The cost models:
    - {!Trg_chunks}: GBSC — TRG_place weights between 256-byte chunks;
    - {!Wcg_procs}: HKC — WCG weights between whole procedures, the same
      graph model over another {!Geometry};
    - {!Sa_pairs}: the Section 6 set-associative extension — D(p, {r,s})
      charges an offset only when p and both pair members share a set. *)

type model =
  | Trg_chunks of { chunks : Trg_program.Chunk.t; trg : Trg_profile.Graph.t }
  | Wcg_procs of { wcg : Trg_profile.Graph.t }
  | Sa_pairs of { chunks : Trg_program.Chunk.t; db : Trg_profile.Pair_db.t }
  | Sa_tuples of { chunks : Trg_program.Chunk.t; db : Trg_profile.Tuple_db.t }
      (** arbitrary associativity: D(p, S) with |S| = ways *)
  | Blend of (model * float) list
      (** weighted sum of sub-model costs, each normalised to unit mass
          first (their magnitudes are incommensurable).  Used to
          regularise the sparse set-associative databases with a small
          share of the dense direct-mapped TRG cost — one concrete reading
          of the paper's "other heuristics [that] were found to be
          important ... in set-associative caches". *)

type t
(** A model bound to the {!Geometry} of its blocks, built once per
    placement, with scratch arrays for one evaluation at a time. *)

val prepare : model -> Trg_program.Program.t -> line_size:int -> n_sets:int -> t

val offsets_cost : t -> n1:Node.t -> n2:Node.t -> float array
(** [offsets_cost t ~n1 ~n2] returns the array [cost] of length [n_sets],
    where [cost.(i)] estimates the conflict misses caused by shifting node
    [n2] by [i] cache sets relative to node [n1].  Only inter-node
    conflicts are counted; intra-node conflicts do not change with the
    offset (Section 4.2, note 2). *)

(** {2 Cost engines}

    Two interchangeable evaluators compute the same arrays: [Full]
    recomputes {!offsets_cost} from scratch for every candidate merge;
    [Incr] maintains pairwise arrays incrementally
    ({!Trg_cache.Incr}) and answers each query in O(n_sets).  For the
    group-decomposable models with integral profile weights the two are
    bit-identical — same arrays, same argmin, same layout; whenever that
    guarantee cannot be established ({!Sa_pairs}, {!Sa_tuples},
    {!Blend}, or non-integral weights from profile perturbation),
    {!seed_incr} returns [None], bumps [cost/incr/fallbacks], and the
    caller uses the full evaluator. *)

type engine_kind = Full | Incr

val set_engine : engine_kind -> unit
(** Sets the process-global engine selection (the [--cost-engine] CLI
    flag).  Call before the evaluation pool forks; workers inherit. *)

val engine : unit -> engine_kind
(** Current selection; defaults to [Incr]. *)

val engine_name : engine_kind -> string
(** ["full"] / ["incr"]. *)

val engine_of_name : string -> engine_kind
(** Inverse of {!engine_name}; raises [Invalid_argument] otherwise. *)

val seed_incr : t -> Trg_cache.Incr.t option
(** [seed_incr t] builds an incremental engine charged with every
    inter-procedure profile edge at the all-singletons starting position,
    or [None] (counted in [cost/incr/fallbacks]) when the model or its
    weights rule out the exactness guarantee. *)

val best_offset : float array -> int
(** Index of the minimum cost; the {e first} such index, per the paper's
    tie rule (Section 4.2, note 3). *)

val occupancy : t -> Node.t -> bool array
(** The cache sets any procedure of the node covers. *)

val best_offset_packed : float array -> n1:bool array -> n2:bool array -> int
(** Like {!best_offset}, but ties in the conflict cost are broken by the
    number of occupied-set collisions between the two nodes (then by the
    smaller index).  The pair database of the set-associative extension is
    much sparser than a chunk TRG, so whole regions of the cost array are
    zero; packing on ties prevents the merge from piling every procedure
    onto set 0 (the "other heuristics" the paper's Section 6 alludes to). *)
