(** A trace event: the execution of one straight-line run of code (one or
    more basic blocks) inside a procedure.

    The paper's profiles are instruction traces summarised to code-block
    references; our events carry the byte range executed so the same trace
    drives the cache simulator (per-line accesses), TRG_select (per-procedure
    references) and TRG_place (per-chunk references). *)

type kind =
  | Enter  (** first block executed after a call into [proc] *)
  | Resume  (** first block executed after a return back into [proc] *)
  | Run  (** continuation within the same procedure *)

type t = {
  kind : kind;
  proc : int;  (** procedure id *)
  offset : int;  (** byte offset of the run within the procedure *)
  len : int;  (** length of the run in bytes, > 0 *)
}

val make : kind:kind -> proc:int -> offset:int -> len:int -> t
(** Validates field ranges (see {!pack}). *)

val is_transition : t -> bool
(** [true] for [Enter] and [Resume]: the control-flow transitions counted by
    a weighted call graph. *)

val kind_to_char : kind -> char

val kind_of_char : char -> kind
(** Raises [Invalid_argument] on an unknown tag. *)

val pack : t -> int
(** Dense encoding into a single OCaml int.  Field limits: [proc < 2^14],
    [offset < 2^24], [len <= 2^22].  [make] enforces these. *)

val unpack : int -> t

val packed_proc : int -> int
(** [packed_proc (pack e) = e.proc] without allocating a record — for
    hot loops over packed traces ({!Trace.packed}). *)

val packed_offset : int -> int

val packed_len : int -> int

val packed_kind : int -> kind
(** The kinds are constant constructors, so this allocates nothing.
    Raises [Invalid_argument] on kind bits 3, which no word of a
    {!Trace.t} has. *)

val check_packed : int -> unit
(** Raises [Invalid_argument] exactly when [make] would reject the fields
    of [unpack w], or [unpack] itself would, and with the same message;
    it builds no record.  The one check a word read from disk needs
    before it can enter a trace ({!Trace.Builder.add_packed}). *)

val pp : Format.formatter -> t -> unit
