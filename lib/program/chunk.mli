(** Chunk numbering: statically determined fixed-size pieces of procedures.

    Section 4 of the paper gathers placement-grade temporal information at a
    granularity finer than whole procedures — 256-byte chunks — so that
    procedures larger than the cache can still be aligned well.  This module
    assigns every chunk of every procedure a dense global id, shared between
    the TRG_place builder and the placement cost calculation. *)

type t

val make : chunk_size:int -> Program.t -> t
(** [chunk_size] must be positive.  Procedure [p] contributes
    [ceil (size p / chunk_size)] chunks. *)

val chunk_size : t -> int

val total : t -> int
(** Total number of chunks across the program. *)

val n_chunks : t -> int -> int
(** Number of chunks of procedure [id]. *)

val n_procs : t -> int
(** Number of procedures of the program the chunks were made for. *)

val proc_size : t -> int -> int
(** Byte size of procedure [id]. *)

val first : t -> int -> int
(** Global id of chunk 0 of procedure [id]. *)

val first_array : t -> int array
(** [first] for every procedure [p < n_procs], then [total] at index
    [n_procs]: procedure [p]'s chunks are [first_array.(p)] to
    [first_array.(p + 1) - 1].  Shared, not copied: never write it. *)

val owner_array : t -> int array
(** [owner] for every chunk; a program with no chunks has one slot, 0.
    Shared, not copied: never write it. *)

val of_offset : t -> proc:int -> offset:int -> int
(** Global chunk id containing byte [offset] of procedure [proc]. *)

val owner : t -> int -> int
(** Procedure owning a global chunk id. *)

val index_in_proc : t -> int -> int
(** Position of a global chunk id within its procedure (0-based). *)

val size_of : t -> int -> int
(** Byte size of a chunk: [chunk_size] except possibly for the last chunk of
    a procedure, which holds the remainder. *)

val iter_range : t -> proc:int -> offset:int -> len:int -> (int -> unit) -> unit
(** [iter_range t ~proc ~offset ~len f] applies [f] to the global id of each
    chunk overlapped by bytes [\[offset, offset+len)] of [proc], in address
    order.  [len = 0] touches no chunk. *)
