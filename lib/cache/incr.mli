(** Incremental conflict-cost engine for the placement search.

    Maintains, for every pair of placement groups, the Section 4.2 cost
    array [D(i)] (the conflict weight of holding one group fixed and
    shifting the other by [i] cache sets) so that the greedy merge loop
    can query a cost array in O(C) and fold a merge into the state in
    O(degree × C), instead of re-walking profile edges on every step.

    Groups are identified by integer ids (procedure ids, in practice)
    under an internal union-find; after [apply_merge ~fixed ~moving] any
    member id of the merged group resolves to the same group.

    {b Exactness.}  Pair arrays are summed as floats in a different
    order than a from-scratch recomputation would use; the results are
    still {e bit-identical} when every seeded value is an integral float
    (profile weights are event counts), because integral-float sums are
    exact.  The seeder, {!Trg_place.Cost.seed_incr}, checks every edge
    weight and falls back to the full evaluator
    ({!Trg_place.Cost.offsets_cost}) when one is not integral — see
    [trgplace --cost-engine].

    Feeds the [cost/incr/*] telemetry counters: [seeded_pairs],
    [queries], [merges], [deltas_applied] and [sets_recosted]; under
    [--profile], [prof/incr/charge_us] (one observation per seeded pair)
    and [prof/incr/apply_us] (one per merge). *)

type t

val create : n_sets:int -> pairs:int -> t
(** An empty engine over a cache of [n_sets] sets, its storage sized
    for [pairs] seeded pairs.  The pair arrays are slots of slab blocks
    of 8192 floats (one slot of [n_sets] floats when that is larger),
    taken as seeding needs them from the blocks of released engines or
    else allocated straight in the major heap; seeding more pairs than
    [pairs] still works.  A merge needs no new slot.  Raises
    [Invalid_argument] when [n_sets <= 0]. *)

val release : t -> unit
(** Hands the engine's blocks on to the engines created after it (up to
    256 blocks are kept).  Any later use of the engine raises
    [Invalid_argument]; releasing twice is harmless.  An engine that is
    never released is reclaimed by the collector as usual. *)

val seed_pair : t -> p1:int -> p2:int -> float array -> lo:int -> hi:int -> unit
(** [seed_pair t ~p1 ~p2 dd ~lo ~hi] charges the pair [p1 < p2] at its
    seed position (every group at offset 0) with the double prefix sum
    of the second-difference buffer [dd] over [\[lo, hi\]]: the running
    value at buffer index [i] is added at offset [i mod n_sets] of the
    pair array oriented p1-to-p2, whose index [(l1 - l2) mod n_sets]
    follows {!Trg_place.Cost.offsets_cost}'s convention for a line [l1]
    of [p1] and a line [l2] of [p2].  Only [dd.(lo..hi)] is read, and
    it is zero on return, so one buffer serves every pair.  A pair may
    be seeded more than once; its charges add up.  Only valid before
    {!freeze}. *)

val freeze : t -> unit
(** Ends the seeding phase; further {!seed_pair}s raise. *)

val n_sets : t -> int

val find : t -> int -> int
(** Current group root of an id (ids never seen are singletons).  Ids
    are non-negative. *)

val cost : t -> fixed:int -> moving:int -> float array
(** [cost t ~fixed ~moving] is the length-[n_sets] cost array of
    shifting [moving]'s group relative to [fixed]'s group — equal, entry
    for entry, to [Cost.offsets_cost] over the same two nodes.  The two
    ids must belong to different groups.  The returned array is fresh. *)

val apply_merge : t -> fixed:int -> moving:int -> shift:int -> unit
(** Folds the merge of [moving]'s group into [fixed]'s group at relative
    offset [shift] (the one chosen from {!cost}'s array, i.e. the same
    [shift] passed to [Node.union ~shift]) into the engine state.  The
    two ids must belong to different groups. *)
