(** Serialisation of traces.

    The paper's toolchain stored ATOM-generated traces on disk between the
    profiling and placement steps; this codec plays that role.  The text
    format is one event per line: [<kind> <proc> <offset> <len>] with kind
    one of [E]/[R]/[.] (see {!Event.kind_to_char}), preceded by a header
    line [trgplace-trace <version> <n_events>].

    {b Format v2} (the version written by this code) appends an integrity
    trailer — [#crc <hex>] for the text format, four raw little-endian
    CRC-32 bytes for the binary format — covering every byte before it.
    v1 files (no trailer) produced by earlier versions still load.  Saves
    are atomic: content is written to [<path>.tmp] and renamed into
    place, so a crash never leaves a half-written artifact.

    Each loader exists in two flavours: a [_result] form returning a typed
    {!Trg_util.Fault.error}, and a compatibility form raising [Failure]
    with the rendered error. *)

val version : int
(** The format version written by {!save} / {!save_binary} (2). *)

val write_channel : out_channel -> Trace.t -> unit

val read_channel : in_channel -> Trace.t
(** Reads either format, detected from the header, v1 or v2.  Raises
    [Failure] on malformed input. *)

val save : string -> Trace.t -> unit
(** [save path trace] atomically writes the v2 text format. *)

val save_result : string -> Trace.t -> (unit, Trg_util.Fault.error) result

val load : string -> Trace.t
(** Loads either format, detected from the header.  Raises [Failure]. *)

val load_result : string -> (Trace.t, Trg_util.Fault.error) result
(** Typed-error loader: every malformed input — wrong magic, unknown
    version, truncation, unparseable record, checksum mismatch, OS-level
    failure — maps to the matching {!Trg_util.Fault.error}. *)

(** {2 Binary format}

    A fixed-width binary encoding — one little-endian 64-bit word per
    event ({!Event.pack}) after a [trgplace-traceb <version> <n>] header
    line — roughly 4x smaller and an order of magnitude faster to parse
    than the text form.  Million-event profile traces are the paper's
    working medium, so the codec matters.  Every version, v1 to v3, is
    read by one chunked decoder: 64 KB channel blocks, the CRC folded
    per block, each word checked ({!Event.check_packed}) and stored
    straight into a fresh {!Trace.t} without building an [Event.t].
    Failures keep the word-at-a-time order: a bad word, then a
    truncated body, then the trailer. *)

val write_channel_binary : out_channel -> Trace.t -> unit

val read_channel_binary : in_channel -> Trace.t
(** Alias of {!read_channel}: the header names the format. *)

val save_binary : string -> Trace.t -> unit

val save_binary_result : string -> Trace.t -> (unit, Trg_util.Fault.error) result

(** {2 Flat binary format (v3)}

    Format v3 shares the binary magic and body with v2 — one
    little-endian 64-bit word per event followed by the 4-byte CRC-32
    trailer — but pads its header line with spaces so the line (newline
    included) is exactly 32 bytes (or the next multiple of 8 for
    astronomically large counts), which puts the payload at an 8-aligned
    file offset.  {!load} reads it with the binary decoder above.

    {!load_flat} and {!load_flat_result} are one-line aliases of {!load}
    and {!load_result}; they and {!save_flat} keep their names because
    the benchmark harness ([trgbench/]), which must not change, and some
    tests call them. *)

val version_flat : int
(** The flat format version written by {!save_flat} (3). *)

val save_flat : string -> Trace.t -> unit
(** [save_flat path trace] atomically writes the v3 flat binary format:
    one exact-size buffer, header, words, then CRC. *)

val save_flat_result : string -> Trace.t -> (unit, Trg_util.Fault.error) result

val load_flat : string -> Trace.t
(** {!load}. *)

val load_flat_result : string -> (Trace.t, Trg_util.Fault.error) result
(** {!load_result}. *)
