(** Least-significant-digit radix sort of integer keys.

    Orders indices by integer key in a few linear passes over flat
    [int] arrays, with no comparison closure.  Layout validation sorts
    procedures by address with it, the linearizer its gap fillers by
    size and id, and popularity selection the procedures by reference
    count. *)

val order : int array -> int array
(** [order keys] is the permutation of [0 .. Array.length keys - 1] that
    lists the indices by increasing key; equal keys keep increasing
    index order.  Keys may be negative and may span the whole [int]
    range.  Sorts 8 bits a pass, and only as many passes as the span
    [max - min] of the keys needs. *)
