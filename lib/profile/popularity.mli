(** Popular-procedure selection.

    Following Hashemi et al. (adopted by the paper "for efficiency
    reasons"), only frequently executed procedures participate in relation
    graph construction and cache-conscious placement; the rest are placed in
    the gaps and the tail of the layout. *)

type t = {
  is_popular : bool array;  (** indexed by procedure id *)
  ranked : int array;
      (** popular ids, most referenced first; equal counts by increasing id *)
  popular_bytes : int;  (** total code size of the popular set *)
}

val select :
  ?coverage:float ->
  ?min_refs:int ->
  ?max_procs:int ->
  Trg_program.Program.t ->
  Trg_trace.Tstats.t ->
  t
(** Ranks procedures by dynamic reference count and marks as popular the
    smallest prefix covering [coverage] (default 0.99) of all dynamic
    references, subject to: a procedure needs at least [min_refs]
    references (default 2) to qualify, and at most [max_procs] (default
    unbounded) procedures are selected. *)

val n_popular : t -> int

val keep : t -> int -> bool
(** [keep t p] = [t.is_popular.(p)] — shaped for the [?keep] arguments of
    the graph builders. *)

val unpopular : t -> int array
(** Ids not selected, in ascending id (source) order. *)
