(** Plain-text table rendering for the experiment harness.

    The evaluation binaries print each reproduced paper table/figure as an
    aligned ASCII table so a reproduction run's output is directly
    comparable with the paper. *)

type align = Left | Right

val render : ?align:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays out [rows] under [header] with column
    separators and a rule under the header.  Columns default to
    right-alignment except the first, which is left-aligned; [?align]
    overrides per column.  Rows shorter than the header are padded with
    empty cells. *)

val print : ?align:align list -> header:string list -> string list list -> unit
(** [render] followed by [print_string]. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point rendering, 2 decimals by default. *)

val fmt_pct : ?decimals:int -> float -> string
(** [fmt_pct x] renders the ratio [x] as a percentage ("4.86%"). *)

val fmt_bytes : int -> string
(** Human-readable byte count ("2277 K" style, matching the paper). *)

val fmt_int : int -> string
(** Thousands-separated integer ("1,234,567"). *)

val section : string -> unit
(** Prints a visually distinct section banner. *)
