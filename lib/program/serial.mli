(** Serialisation of programs and layouts.

    Together with {!Trg_trace.Io} this lets the profiling, placement and
    simulation stages run as separate processes exchanging files — the way
    the paper's ATOM + placement-tool + linker pipeline operated.

    Program format: a [trgplace-program <version> <n>] header, then one
    [<id> <size> <name>] line per procedure.  Layout format: a
    [trgplace-layout <version> <n>] header, then one [<proc> <address>]
    line per procedure.

    {b Format v2} (the version written by this code) appends a
    [#crc <hex>] CRC-32 trailer covering every byte before it; v1 files
    (no trailer) still load.  Saves are atomic (write to [<path>.tmp],
    then rename).  Every loader exists as a [_result] form returning a
    typed {!Trg_util.Fault.error} and a compatibility form raising
    [Failure] with the rendered error. *)

val version : int
(** The format version written by the savers (2). *)

val write_program : out_channel -> Program.t -> unit

val read_program : in_channel -> Program.t
(** Raises [Failure] on malformed input. *)

val save_program : string -> Program.t -> unit

val save_program_result : string -> Program.t -> (unit, Trg_util.Fault.error) result

val load_program : string -> Program.t

val load_program_result : string -> (Program.t, Trg_util.Fault.error) result

val write_layout : out_channel -> Layout.t -> unit

val read_layout : Program.t -> in_channel -> Layout.t
(** Validates records (ids in range, no duplicates, non-negative
    addresses) and the layout against the program (procedure count,
    non-overlap).  Raises [Failure]. *)

val save_layout : string -> Layout.t -> unit

val save_layout_result : string -> Layout.t -> (unit, Trg_util.Fault.error) result

val load_layout : Program.t -> string -> Layout.t

val load_layout_result :
  Program.t -> string -> (Layout.t, Trg_util.Fault.error) result

val verify_layout_result : string -> (int, Trg_util.Fault.error) result
(** Structural integrity check of a layout file without a program to
    validate against: header, records, checksum.  Returns the procedure
    count.  Used by [trgplace verify]. *)

(** {2 Record lines}

    The loaders' parsers for one record line.  They accept exactly the
    lines [Scanf.sscanf line "%d %d %s@\n"] and ["%d %d"] accept, with
    the same fields, and allocate no scanning buffer. *)

val parse_program_record : string -> (int * int * string) option
(** [Some (id, size, name)] for a program record line, before
    {!Proc.make} checks the fields. *)

val parse_layout_record : string -> (int * int) option
(** [Some (proc, address)] for a layout record line; anything after the
    second number is ignored. *)
