(** A layout: the starting byte address of every procedure.

    This is the object every placement algorithm produces and the cache
    simulator consumes.  The linker-level mechanisms the paper relies on —
    reordering procedures and inserting gaps — both reduce to choosing these
    addresses. *)

type t

val of_addresses : Program.t -> int array -> t
(** [of_addresses program addr] with [addr.(p)] the byte address of
    procedure [p].  Validates that no two procedures overlap and that all
    addresses are non-negative; raises [Invalid_argument] otherwise,
    naming the first offence in address order (of two procedures at one
    address, the lower id first). *)

val address : t -> int -> int
(** Starting address of a procedure. *)

val addresses : t -> int array
(** Defensive copy of the address map. *)

val n_procs : t -> int

val span : t -> int
(** One past the largest occupied address: the total footprint of the
    layout, including any gaps. *)

val order : t -> int array
(** Procedure ids sorted by increasing address: the linear ordering this
    layout corresponds to in the executable. *)

val gap_bytes : t -> Program.t -> int
(** Total number of unoccupied bytes between address 0 and [span]. *)

val default : ?align:int -> Program.t -> t
(** Source-order layout: procedures appear in id order, each start rounded
    up to [align] bytes (default 4).  This is the "default layout produced
    by most compilers" baseline of the paper. *)

val contiguous : ?align:int -> Program.t -> int array -> t
(** [contiguous program order] packs the procedures in the given order with
    each start rounded up to [align] (default 4).  [order] must be a
    permutation of the procedure ids. *)

val padded : ?align:int -> pad:int -> Program.t -> int array -> t
(** Like {!contiguous} but inserts [pad] empty bytes after every procedure —
    the Section 5.1 fragility experiment. *)

val random : Trg_util.Prng.t -> ?align:int -> Program.t -> t
(** Uniformly random procedure order, packed contiguously. *)

val cache_line_of : t -> line_size:int -> n_lines:int -> int -> int
(** [cache_line_of t ~line_size ~n_lines p] is the direct-mapped cache line
    index of the first byte of procedure [p]:
    [(addr / line_size) mod n_lines]. *)

val line_align : line_size:int -> n_sets:int -> Program.t -> t -> t
(** Set-preserving line-aligned repack: procedures keep their address
    order, every start moves to the nearest available line boundary whose
    set index ([addr / line_size mod n_sets]) equals the set index of the
    procedure's original first line.  The cache conflict structure the
    layout encodes is untouched (line-to-set mapping per procedure is
    preserved), but no procedure straddles a partial first line, so
    distinct-line counts — and therefore compulsory misses — become
    comparable across layouts of the same program.  Used by the
    miss-attribution reports. *)

val digest : t -> int
(** CRC-32 of the placement's canonical [proc:address] rendering — two
    layouts share a digest iff they assign identical addresses.  Recorded
    as a decision journal's layout claim and re-checked bit-identical by
    [trgplace replay]. *)

val pp : Program.t -> Format.formatter -> t -> unit
(** One line per procedure in address order, for debugging/examples. *)
