(** Undirected weighted graphs over integer-identified code blocks.

    This one structure represents both the weighted call graph (WCG) of
    Pettis & Hansen and the temporal relationship graphs (TRGs) of the
    paper: nodes are procedure or chunk ids, edge weights are interleaving
    counts (possibly perturbed to non-integral values).

    Node ids must be non-negative and below {!max_id}. *)

type t
(** Immutable.  Each graph is built once, from {!Counts} or by one of
    the functions below, into flat arrays: its edges in first-seen order,
    an open-addressing index from node pair to edge, and each node's
    adjacency as one slice of a shared array.  No later call changes a
    graph. *)

val max_id : int
(** Exclusive upper bound on node ids (2^24), imposed by the packed edge-key
    encoding. *)

(** Integer edge counts, accumulated without allocation and then frozen
    into a graph: the builder of every count-weighted graph (TRGs, WCGs).
    An {!add} is one probe of an open-addressing table keyed by the
    packed canonical pair. *)
module Counts : sig
  type graph := t

  type t

  val create : ?hint:int -> unit -> t
  (** [hint] (default 256) sizes the tables. *)

  val add : t -> int -> int -> unit
  (** [add t p q] adds 1 to the count of the undirected edge [{p, q}].
      Both ids must lie in [\[0, max_id)]; otherwise it raises
      [Invalid_argument "Graph: node id <id> out of range"].  Self-edges
      are ignored. *)

  val add_chain : t -> int -> next:int array -> int -> int
  (** [add_chain t p ~next q] calls [add t p x] for each [x] of the
      chain [q], [next.(q)], [next.(next.(q))], ... up to the first
      negative id, in that order, and returns how many it counted.  A
      repeat edge costs one probe inside the loop, with no call: this
      is how Q's counting reference ({!Qset.count}) counts the ids
      between two occurrences of [p], which it keeps linked through
      [next]. *)

  val length : t -> int
  (** Distinct edges counted so far. *)

  val index : t -> int -> int -> int
  (** [index t p q] is the position of edge [{p, q}] in first-seen order,
      [0] to [length t - 1], or [-1] when it has not been added. *)

  val count : t -> int -> int
  (** [count t i] is the count of the edge at position [i]. *)

  val to_graph : t -> graph
  (** The graph of the counts so far.  Its edges are those counted, in
      first-seen order ({!iter_edges_unordered}), each oriented as its
      first {!add} was and weighted by its count as a float.  [t] may
      keep being added to; the graph shares no array that [t] writes
      afterwards, so it does not change. *)
end

val weight : t -> int -> int -> float
(** 0 if the edge is absent, including when an id is out of range. *)

val mem_edge : t -> int -> int -> bool

val neighbors : t -> int -> int list
(** Ids adjacent to [u] (empty if [u] has no edges), newest edge first:
    the reverse of the order in which [u]'s edges were first seen. *)

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors t u f] calls [f v e] for each neighbour [v] of [u],
    in {!neighbors} order, where [e] numbers the edge [{u, v}]
    ({!edge_weight}).  It builds no list and boxes no weight: the walk
    of the full cost evaluator. *)

val degree : t -> int -> int

val nodes : t -> int list
(** All ids that appear in at least one edge, ascending. *)

val n_nodes : t -> int

val n_edges : t -> int

(** {2 Edges by number}

    Edges are numbered [0] to [n_edges t - 1] in first-seen order, the
    order of {!iter_edges_unordered}.  These accessors box nothing per
    edge, which a callback taking the weight as a float must do. *)

val edge_ends : t -> int -> int
(** [edge_ends t e] packs the ends [u < v] of edge [e] as
    [(u lsl 24) lor v]. *)

val edge_weight : t -> int -> float

val weights : t -> float array
(** A fresh array of every edge's weight, indexed by edge number. *)

val edges : t -> (int * int * float) array
(** All edges as [(u, v, w)] with [u < v], sorted by [(u, v)] — a canonical,
    deterministic ordering. *)

val total_weight : t -> float

val iter_edges : (int -> int -> float -> unit) -> t -> unit
(** Iterates in the same canonical order as {!edges}.  The order is
    computed once per graph, on the first call of this or {!edges}. *)

val iter_edges_unordered : (int -> int -> float -> unit) -> t -> unit
(** Like {!iter_edges} but in first-seen order: the order in which
    {!Counts.add} or {!of_edges} first met each edge, or canonical order
    for the results of {!map_weights} and {!filter_nodes}.  It needs no
    sort and allocates nothing.  Still yields [u < v]. *)

val copy : t -> t
(** The identity: a graph is immutable. *)

val map_weights : (int -> int -> float -> float) -> t -> t
(** [map_weights f t] is [t] with each weight [w] of edge [{u, v}]
    replaced by [f u v w].  [f] is called once per edge, in {!iter_edges}
    order (profile perturbation draws its random factors in this order).
    The result's first-seen order is that order too. *)

val filter_nodes : (int -> bool) -> t -> t
(** Subgraph induced by the nodes satisfying the predicate (used to
    restrict working graphs to popular procedures).  Visits the edges in
    {!iter_edges} order, calling the predicate on [u] and then, if it
    held, on [v]. *)

val of_edges : (int * int * float) list -> t
(** The graph of a list of [(u, v, w)] edges, taken as first seen in list
    order.  A repeated edge adds its weight to the earlier one, in list
    order; self-edges are ignored.  Raises [Invalid_argument] as
    {!Counts.add} does on an id out of range. *)

val pp : ?name:(int -> string) -> Format.formatter -> t -> unit

val to_dot :
  ?name:(int -> string) -> ?graph_name:string -> ?min_weight:float -> t -> string
(** Graphviz rendering: undirected edges with weight labels, pen widths
    scaled by weight.  [min_weight] (default 0) drops light edges so WCGs
    and TRGs of real benchmarks stay readable. *)
