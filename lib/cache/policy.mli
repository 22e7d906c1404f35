(** Cache replacement policies behind one per-set interface.

    A policy owns the per-set replacement state of a set-associative
    cache and exposes the three operations a simulator needs:

    - [touch]: an access hit way [w] — update recency/age state;
    - [victim]: the set is full and a line must go — pick the way;
    - [fill]: a miss installed a line into way [w] — record insertion.

    Shipped policies: true LRU, FIFO, MRU (evict the most recent), the
    Tree-PLRU most real L1 I-caches implement, and two QLRU ("quad-age
    LRU") variants in the style of the reverse-engineered Intel L2/L3
    policies — two age bits per line, victim is the leftmost way at age
    3, ages renormalise upward when no way is at 3:

    - [Qlru_h00]: a hit resets the line's age to 0;
    - [Qlru_h11]: a hit takes age 3 to 1 and any other age to 0.

    Both insert missed lines at age 1.

    All policies share one validity rule: a miss fills the
    lowest-numbered invalid way before the policy is ever asked for a
    victim (hardware checks valid bits the same way).  Under this rule
    Tree-PLRU is exactly LRU at associativity <= 2 — an identity the
    test wall pins.

    {!Probe} is the optimized engine used by simulation; {!Reference}
    re-implements every policy with deliberately naive list scans
    (explicit recency lists, age association lists, tree walks) and
    exists only so tests can prove the engine bit-identical to an
    obviously-correct model. *)

type kind = Lru | Fifo | Mru | Plru | Qlru_h00 | Qlru_h11

val all : kind list
(** Every shipped policy, in documentation order. *)

val to_string : kind -> string
(** CLI/manifest name: ["lru"], ["fifo"], ["mru"], ["plru"],
    ["qlru-h00"], ["qlru-h11"]. *)

val of_string : string -> (kind, string) result
(** Inverse of {!to_string}; the error names the valid choices. *)

val names : string list
(** [List.map to_string all]. *)

val describe : kind -> string
(** One-line human description (README/help text). *)

val validate : kind -> assoc:int -> unit
(** Raises [Invalid_argument] for configurations the policy cannot
    express: Tree-PLRU requires power-of-two associativity. *)

(** The optimized engine: one instance simulates a whole cache
    (tags + per-set policy state in flat int arrays, no per-access
    allocation).  True LRU and MRU keep each set's tags in recency order
    and move a referenced tag to the front; the other policies index
    tags by way and keep their state beside them. *)
module Probe : sig
  type t

  val create : kind -> n_sets:int -> assoc:int -> t
  (** Cold cache.  Validates the policy/associativity combination. *)

  val access : t -> int -> int
  (** [access t la] references line address [la] and returns:
      [-2] for a hit; otherwise the previous tag of the filled way —
      [-1] when an invalid way was filled, or the evicted line's
      address ([>= 0]) when a resident line was displaced. *)

  val hit : int -> bool
  (** [hit (access t la)] — true on the [-2] code. *)
end

(** Fully-associative true LRU over ids [0..n_ids): a doubly-linked
    recency list indexed by id, O(1) per reference.  {!Sim.paging} runs
    it as the resident page set; {!Attrib} and {!Hierarchy} run it as
    the equal-capacity shadow cache that tells capacity misses from
    conflict misses. *)
module Full_lru : sig
  type t

  val create : capacity:int -> n_ids:int -> t
  (** Empty, holding at most [capacity] ids. *)

  val access : t -> int -> bool
  (** Probe-and-touch: whether the id was resident; it becomes the most
      recent either way, evicting the least recent when full. *)
end

(** Brute-force reference implementations, used only by tests.  Same
    [access] contract and return coding as {!Probe.access}, computed
    from explicit per-set lists: recency-ordered tag lists (LRU/MRU),
    fill-order queues (FIFO), a walked list of tree nodes (Tree-PLRU)
    and [(tag, age)] association lists (QLRU). *)
module Reference : sig
  type t

  val create : kind -> n_sets:int -> assoc:int -> t

  val access : t -> int -> int
end
