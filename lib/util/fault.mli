(** Reliability layer for the artifact pipeline.

    Every on-disk artifact (traces, programs, layouts) is framed the same
    way: a [<magic> <version> <count>] header line, [count] records, and —
    from format v2 — a CRC-32 trailer covering every byte before it.  This
    module owns the pieces the codecs share: the typed error domain, the
    header/trailer framing helpers, checksummed channel readers, atomic
    file writes, a deterministic fault injector for tests, and a
    retry-with-backoff combinator for transient I/O. *)

(** {2 Typed errors} *)

type error =
  | Bad_magic of { expected : string; got : string }
      (** The file's magic word is not the artifact's. *)
  | Unsupported_version of { magic : string; got : int }
      (** Known artifact, unknown format version. *)
  | Checksum_mismatch of { stored : int; computed : int }
      (** The v2 CRC-32 trailer disagrees with the file contents. *)
  | Truncated of string
      (** Input ended early; the payload names what was being read. *)
  | Bad_record of string
      (** A structurally invalid header or record; the payload says why. *)
  | Io_error of string  (** The operating system refused an I/O operation. *)

exception Error of error

val fail : error -> 'a
(** [fail e] raises [Error e]. *)

val to_string : error -> string

val pp : Format.formatter -> error -> unit

val result : (unit -> 'a) -> ('a, error) result
(** [result f] runs [f], mapping [Error] and [Sys_error] to [Result.Error]
    (the latter as [Io_error]).  Other exceptions pass through. *)

val or_fail : (unit -> 'a) -> 'a
(** Compatibility shim: re-raises [Error e] as [Failure (to_string e)], the
    exception the pre-v2 loaders threw. *)

(** {2 Framing} *)

val parse_header : magic:string -> max_version:int -> string -> int * int
(** [parse_header ~magic ~max_version line] parses [<magic> <v> <n>],
    checking the magic word, [1 <= v <= max_version] and [n >= 0].
    Returns [(v, n)].  Raises {!Error}. *)

val magic_of_line : string -> string
(** First whitespace-delimited token of a header line ([""] if empty) —
    used to sniff an artifact's kind before committing to a parser. *)

(** Checksummed line reader: wraps an [in_channel] and folds every line it
    hands out (newline included) into a running CRC-32, so a reader
    reaches the v2 trailer already knowing the digest of everything
    before it. *)
module Reader : sig
  type t

  val of_channel : in_channel -> t

  val line : t -> what:string -> string
  (** Next line, folded into the CRC.  Raises [Error (Truncated what)] at
      end of input. *)

  val input : t -> bytes -> len:int -> int
  (** Reads up to [len] raw bytes into the start of the buffer — fewer
      only at end of input — folds them into the CRC and returns how
      many it read.  For decoders that must still check the whole
      records of a short final block before reporting the truncation. *)

  val remaining : t -> int option
  (** Bytes left between the read position and the end of a regular
      file; [None] when the channel cannot tell (a pipe, a terminal).
      Lets a decoder size its output from the file instead of trusting
      the header's count. *)

  val crc : t -> int
  (** Digest of everything consumed so far. *)
end

val crc_trailer : int -> string
(** The trailer line (newline included) recording a digest: ["#crc <hex>\n"]. *)

val check_text_trailer : Reader.t -> unit
(** Reads one trailer line and compares its digest against the CRC the
    reader accumulated before the call.  Raises [Error
    (Checksum_mismatch _)], [Truncated] or [Bad_record]. *)

val check_binary_trailer : Reader.t -> unit
(** Same for the binary trailer: four raw little-endian digest bytes. *)

(** {2 Atomic file I/O} *)

val read_file : string -> string
(** Whole-file read.  Raises [Error (Io_error _)] (never [Sys_error]). *)

val atomic_write : string -> string -> unit
(** [atomic_write path content] writes to [path ^ ".tmp"] and renames over
    [path], so a crash or injected fault mid-write never leaves a
    half-written artifact behind.  The temp file is removed on failure.
    Raises [Error (Io_error _)].  Consults the ambient {!injector}. *)

(** {2 Fault injection}

    A deterministic, PRNG-seeded corruptor used by the robustness tests
    (and exposed through [trgplace --force-fail] style hooks).  While an
    injector is installed with {!with_injector}, {!atomic_write} and
    {!read_file} fail with [Io_error] at [io_fail_rate], and written
    content suffers per-byte bit-flips at [bit_flip_rate] and loses a
    random suffix at [truncate_rate]. *)

type injector

val injector :
  ?bit_flip_rate:float ->
  ?truncate_rate:float ->
  ?io_fail_rate:float ->
  seed:int ->
  unit ->
  injector
(** All rates default to [0.].  Equal seeds give identical fault
    sequences. *)

val corrupt : injector -> string -> string
(** Applies the injector's bit-flip and truncation processes to a
    serialized artifact. *)

val io_fault : injector -> op:string -> unit
(** Raises [Error (Io_error op)] with probability [io_fail_rate]. *)

val with_injector : injector -> (unit -> 'a) -> 'a
(** Installs the injector for the dynamic extent of the callback
    (restoring the previous one on exit). *)

val io_point : op:string -> unit
(** A syscall-failure injection point: raises [Error (Io_error _)] at the
    ambient injector's [io_fail_rate]; a no-op when none is installed.
    The artifact loaders call this when opening a file. *)

(** {2 Retry} *)

val with_retry :
  ?attempts:int ->
  ?base_delay:float ->
  ?sleep:(float -> unit) ->
  ?retryable:(exn -> bool) ->
  (unit -> 'a) ->
  'a
(** [with_retry f] runs [f], retrying on transient failures (by default
    [Error (Io_error _)] and [Sys_error _]) up to [attempts] times
    (default 3) with exponential backoff: [sleep (base_delay * 2^k)]
    before retry [k].  [sleep] defaults to a no-op so retries are
    immediate and deterministic; pass {!Clock.sleep} for real (EINTR-resuming) backoff.
    The last failure is re-raised when attempts are exhausted;
    non-retryable exceptions propagate immediately. *)
