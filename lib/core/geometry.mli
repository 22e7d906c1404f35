(** Which cache sets a block covers (Section 4.2, Figure 4; Figure 6),
    for one cache and one block granularity: chunks or procedures.  Build
    it once per placement.  The kernel's intervals are a first set
    [s < n_sets] and a length [l <= n_sets]: the sets [s, s + 1, ...]
    modulo [n_sets]. *)

type t = private {
  n_sets : int;
  line_size : int;
  owner : int array;
      (** block -> its procedure; may hold one slot more than there are
          blocks, as {!of_chunks}' does for a program with no chunks *)
  offset : int -> int;  (** block -> its first byte, from its owner's start *)
  bytes : int -> int;  (** block -> its size in bytes *)
  first : int array;  (** block -> its first line's set, its owner's at set 0 *)
  lines : int array;  (** block -> the lines it covers, at most [n_sets] *)
  proc_first : int array;
      (** procedure [p]'s blocks are [proc_first.(p)] to [proc_first.(p + 1) - 1] *)
}
(** The arrays are shared, not copied: read them, never write them. *)

val of_chunks : Trg_program.Chunk.t -> line_size:int -> n_sets:int -> t
(** One block per chunk, by global chunk id.  The chunk size should be a
    multiple of [line_size], as {!Gbsc} requires.  [owner] and
    [proc_first] are the chunks' own arrays. *)

val of_procs : Trg_program.Program.t -> line_size:int -> n_sets:int -> t
(** One block per procedure, by procedure id. *)

val start_set : t -> owner_set:int -> int -> int
(** Block [b]'s first set when its owner's first line is at [owner_set]. *)

val placed_start : t -> address:int -> int -> int
(** Block [b]'s first set when its owner starts at byte [address]. *)

val placed_lines : t -> address:int -> int -> int
(** The lines block [b]'s bytes then cover, at most [n_sets]. *)

val iter_sets : t -> int -> int -> (int -> unit) -> unit
(** [iter_sets g s l f] applies [f] to the interval's sets, [s] first. *)

val shared : t -> int -> int -> int -> int -> int
(** [shared g a la b lb] counts the sets both intervals cover. *)

val correlate : t -> float array -> w:float -> int -> int -> int -> int -> unit
(** [correlate g cost ~w s1 l1 s2 l2] adds [w] to [cost.((x1 - x2) mod
    n_sets)] for each set [x1] of the fixed interval and [x2] of the
    moving one, one addition at a time: every cell sums as a walk over
    the set pairs would, non-integral weights included. *)
