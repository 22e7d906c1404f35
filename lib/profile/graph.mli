(** Undirected weighted graphs over integer-identified code blocks.

    This one structure represents both the weighted call graph (WCG) of
    Pettis & Hansen and the temporal relationship graphs (TRGs) of the
    paper: nodes are procedure or chunk ids, edge weights are interleaving
    counts (possibly perturbed to non-integral values).

    Node ids must be non-negative and below {!max_id}. *)

type t

val max_id : int
(** Exclusive upper bound on node ids (2^24), imposed by the packed edge-key
    encoding. *)

val create : ?hint:int -> unit -> t
(** [hint] sizes the internal tables. *)

val add_edge : t -> int -> int -> float -> unit
(** [add_edge t u v w] adds [w] to the weight of the undirected edge
    [{u, v}], creating it if absent.  Self-edges ([u = v]) are ignored:
    a block never conflicts with itself. *)

(** Integer edge counts, accumulated without allocation and turned into a
    graph once: the builder of every count-weighted graph (TRGs, WCGs).
    An {!add} is one probe of an open-addressing table keyed by the packed
    canonical pair, where [add_edge g p q 1.] would pay two hash lookups
    and a boxed float. *)
module Counts : sig
  type graph := t

  type t

  val create : ?hint:int -> unit -> t
  (** [hint] (default 256, as for {!create}) sizes the tables and is
      passed on to the graph {!to_graph} builds. *)

  val add : t -> int -> int -> unit
  (** [add t p q] adds 1 to the count of the undirected edge [{p, q}].
      Ids are checked as by {!add_edge}; self-edges are ignored. *)

  val to_graph : t -> graph
  (** The graph of the counts so far, built with one
      [add_edge g p q (float count)] per distinct edge, in the order the
      edges were first added and with the orientation of each edge's
      first [add].  Its weight table, adjacency lists and
      {!iter_edges_unordered} order are exactly those that calling
      [add_edge g p q 1.] on every [add] would have built.  [t] may keep
      being added to. *)
end

val set_edge : t -> int -> int -> float -> unit
(** Overwrites the weight of [{u, v}] (creates the edge if needed). *)

val weight : t -> int -> int -> float
(** 0 if the edge is absent. *)

val mem_edge : t -> int -> int -> bool

val neighbors : t -> int -> int list
(** Ids adjacent to [u] (empty if [u] has no edges).  Order is unspecified
    but deterministic for a given construction sequence. *)

val degree : t -> int -> int

val nodes : t -> int list
(** All ids that appear in at least one edge, ascending. *)

val n_nodes : t -> int

val n_edges : t -> int

val edges : t -> (int * int * float) array
(** All edges as [(u, v, w)] with [u < v], sorted by [(u, v)] — a canonical,
    deterministic ordering. *)

val total_weight : t -> float

val iter_edges : (int -> int -> float -> unit) -> t -> unit
(** Iterates in the same canonical order as {!edges}. *)

val iter_edges_unordered : (int -> int -> float -> unit) -> t -> unit
(** Like {!iter_edges} but in unspecified (hash-table) order, without
    the sort or the per-edge allocation {!edges} pays for canonical
    ordering.  Still yields [u < v].  Only for folds whose result does
    not depend on visit order — e.g. exact (integral-float) sums. *)

val copy : t -> t

val map_weights : (int -> int -> float -> float) -> t -> t
(** Functional weight transformation (used by profile perturbation). *)

val filter_nodes : (int -> bool) -> t -> t
(** Subgraph induced by the nodes satisfying the predicate (used to
    restrict working graphs to popular procedures). *)

val of_edges : (int * int * float) list -> t

val pp : ?name:(int -> string) -> Format.formatter -> t -> unit

val to_dot :
  ?name:(int -> string) -> ?graph_name:string -> ?min_weight:float -> t -> string
(** Graphviz rendering: undirected edges with weight labels, pen widths
    scaled by weight.  [min_weight] (default 0) drops light edges so WCGs
    and TRGs of real benchmarks stay readable. *)
