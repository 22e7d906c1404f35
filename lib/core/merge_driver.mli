(** Greedy heaviest-edge merging of a working graph.

    All three placement algorithms (PH, HKC, GBSC) share this outer loop
    (Section 2): repeatedly take the largest-weight edge of the working
    graph, merge the two groups it connects, and combine parallel edges by
    summing their weights, until no edges remain.

    Determinism: ties in edge weight are broken by the order in which the
    tied weights were pushed on the heap (initial edges in canonical
    [(u, v)] order, then updates in merge order), so a given input graph
    always produces the same merge sequence.

    {b Tie-order contract.}  Within one merge, the re-pointed edges of
    the absorbed group are pushed in the iteration order of that group's
    adjacency table: a [Hashtbl.Make] table keyed by neighbour
    representative (original node id) with [hash = Hashtbl.hash], whose
    buckets are the polymorphic [Hashtbl]'s, created by [create 8] and
    changed only by [replace] and [remove] in the order the merges make
    them.  With
    integral weights, ties are common, and this order decides which of
    them pops first, hence the merge sequence, the layout and every
    recorded journal.  Any rewrite of the driver must keep it: the
    differential wall ["merge driver matches the Hashtbl driver, ties
    included"] compares groups, [merge/*] counters, journals and replay
    outcomes against the earlier polymorphic-[Hashtbl] driver, kept in
    [test/merge_driver_ref.ml], on graphs whose weights tie everywhere.

    State: union-find, group sizes, payloads and liveness live in arrays
    over the graph's dense node numbers ({!Trg_profile.Graph.node_index}),
    so ids may be as large as {!Trg_profile.Graph.max_id} without
    sizing anything by them; the heap ({!Trg_util.Heap}) holds each
    entry's two group numbers packed in one [int]. *)

val run :
  graph:Trg_profile.Graph.t ->
  init:(int -> 'node) ->
  merge:('node -> 'node -> 'node) ->
  'node list
(** [run ~graph ~init ~merge] seeds one group per graph node via [init] and
    returns the remaining groups once all edges are consumed, ordered by
    decreasing group size (number of original nodes), ties by smaller
    representative id.

    [merge n1 n2] must return the merged payload; the driver passes the
    {e larger} group as [n1] (ties: the group whose representative id is
    smaller), so alignment-style merges keep the bigger layout fixed.

    When {!Trg_obs.Journal.recording} is armed, every merge decision is
    appended to the journal before the merge applies: the chosen group
    pair and winning weight, both group sizes, and the runner-up — the
    heaviest other non-stale heap entry, found by a non-destructive scan
    so heap insertion ordinals (the tie-breakers) are untouched.  The
    default path pays exactly one branch per merge. *)

val replay :
  graph:Trg_profile.Graph.t ->
  init:(int -> 'node) ->
  merge:('node -> 'node -> 'node) ->
  decisions:Trg_obs.Journal.decision array ->
  'node list
(** Forced-choice mode: re-drive a recorded merge sequence over the same
    working graph, with no heap and no greedy search.  Each journal
    decision is verified against the live state before it applies — both
    representatives must name live groups, the chosen edge and the
    runner-up edge must carry bit-identical weights, group sizes must
    match, and the margin must be non-negative — and after the last
    decision no mergeable edge may remain.  Group bookkeeping (union
    order, combined weights, output ordering) is shared with {!run}, so
    on a faithful journal the returned groups are bit-identical to the
    recorded run's.  While {!Trg_obs.Journal.recording}, each verified
    decision is re-recorded (the merge callback re-annotates it), which
    is how the replay gate cross-checks engine-derived offsets and costs.

    @raise Failure naming the failing step on any mismatch. *)
