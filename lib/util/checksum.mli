(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed by
    slicing-by-8: eight bytes per step through eight 256-entry tables,
    the last [len mod 8] bytes one at a time.  Nothing allocates.

    Used as the integrity trailer of every v2 on-disk artifact (traces,
    programs, layouts).  Digests are plain non-negative OCaml [int]s
    masked to 32 bits, so they print, compare and serialise trivially.

    The one-shot entry points thread an optional [?crc] accumulator so
    digests can be computed incrementally over a stream of chunks:
    [string ~crc:(string a) b = string (a ^ b)]. *)

val empty : int
(** The digest of the empty string; the initial accumulator value. *)

val string : ?crc:int -> string -> int
(** [string ?crc s] extends the digest [crc] (default {!empty}) with the
    bytes of [s].  [crc] is read modulo 2^32. *)

val substring : ?crc:int -> string -> pos:int -> len:int -> int
(** Digest of a slice.  Raises [Invalid_argument] on a bad range. *)

val bytes : ?crc:int -> bytes -> pos:int -> len:int -> int
(** Like {!substring} for a [bytes] buffer. *)

val to_hex : int -> string
(** Fixed-width lowercase hex, e.g. ["cbf43926"]. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}: exactly eight hex digits, else [None]. *)
