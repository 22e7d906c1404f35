(** The ordered set Q of recently referenced code blocks (Section 3).

    Q summarises the temporal locality of a trace.  Members are ordered as
    they appeared; a member becomes irrelevant (and is evicted) once enough
    unique code has been referenced after it to evict it from the cache —
    operationally, Q's resident byte total is bounded so that removing the
    next least-recently-used member would drop it below the capacity bound
    (the paper uses 2x the cache size).

    Processing one trace reference [p]:
    - if a previous occurrence of [p] is in Q, every id referenced between
      the two occurrences is reported (these are the TRG edge increments),
      the old occurrence is removed, and [p] is appended at the
      most-recent end;
    - otherwise [p] is appended and the oldest members are evicted while the
      bound allows.

    Ids must be non-negative.  Q is a doubly linked list threaded through
    arrays indexed by id, so a reference allocates nothing; the arrays are
    sized to the largest id seen, so memory is O(largest id), not
    O(population).

    Q has two references that share everything but what they do with
    the ids between the occurrences: {!reference} reports each one to a
    callback, and {!count}, the TRG builders' path, counts each edge
    straight into a {!Graph.Counts} table with no call per id. *)

type t

type stats = {
  avg_entries : float;  (** mean population of Q over all processed steps *)
  max_entries : int;
  steps : int;  (** references processed *)
}

val create : capacity_bytes:int -> size_of:(int -> int) -> t
(** [size_of id] must be positive and stable for a given id: Q asks it
    once, when [id] first enters, and keeps the answer.
    [capacity_bytes] must be positive (the paper uses
    [2 * cache size in bytes]). *)

val reference : t -> int -> between:(int -> unit) -> bool
(** [reference t p ~between] processes the next trace reference.  Returns
    [true] iff a previous occurrence of [p] was present, in which case
    [between] has been called once for each distinct id between the two
    occurrences of [p], in trace order.  Raises [Invalid_argument] if
    [p < 0]. *)

val count : t -> int -> Graph.Counts.t -> int
(** [count t p counts] processes the next trace reference as
    {!reference} does, but adds 1 to the count of the edge [{p, q}] in
    [counts] ({!Graph.Counts.add}) for each [q] that {!reference} would
    pass to [between], in the same order.  Returns the number of
    increments, 0 when no previous occurrence of [p] was present.
    Raises [Invalid_argument] if [p < 0], and as {!Graph.Counts.add}
    does on an id out of its range. *)

val members : t -> int list
(** Current contents, least recent first. *)

val length : t -> int

val total_bytes : t -> int

val stats : t -> stats
