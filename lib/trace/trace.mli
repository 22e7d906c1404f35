(** A program trace: an immutable, densely packed sequence of events.

    Traces of a few million events are routine in the evaluation, so the
    representation is one machine word per event ({!Event.pack}) in a
    native-int Bigarray, off the OCaml heap.  It is the only trace
    representation: the simulator and the binary loader ({!Io}) stream the
    packed words through {!packed} and the [Event.packed_*] accessors,
    so no per-event loop allocates.  No public function mutates a
    trace. *)

type t

val length : t -> int

val get : t -> int -> Event.t
(** [get t i] for [0 <= i < length t]. *)

val packed : t -> int -> int
(** [packed t i] is [Event.pack (get t i)] without building the record —
    pair it with [Event.packed_proc]/[packed_offset]/[packed_len] in
    allocation-free loops. *)

val unsafe_packed : t -> int -> int
(** {!packed} without the bound check, for a loop whose index runs over
    [0 .. length t - 1] and nowhere else. *)

val iter : (Event.t -> unit) -> t -> unit

val iteri : (int -> Event.t -> unit) -> t -> unit

val fold : ('a -> Event.t -> 'a) -> 'a -> t -> 'a

val of_list : Event.t list -> t

val of_events : Event.t array -> t

val to_list : t -> Event.t list

val concat : t list -> t

val sub : t -> pos:int -> len:int -> t
(** A copy of events [pos .. pos + len - 1].  Raises [Invalid_argument]
    on a bad range. *)

val procs_of : t -> int list
(** Distinct procedure ids referenced, ascending. *)

(** Aliases of {!t} and its functions, with no code path of their own.
    They stay because the benchmark harness ([trgbench/]), which must
    not change, and some tests call them. *)
module Flat : sig
  type nonrec t = t

  val length : t -> int

  val of_trace : t -> t
  (** The identity. *)

  val to_trace : t -> t
  (** The identity. *)

  val get : t -> int -> Event.t

  val get_packed : t -> int -> int
  (** {!packed}. *)

  val iter : (Event.t -> unit) -> t -> unit
end

(** Incremental construction. *)
module Builder : sig
  type trace = t

  type t

  val create : ?capacity:int -> unit -> t

  val add : t -> Event.t -> unit
  (** Raises [Invalid_argument] as {!Event.check_packed} does on the
      packed event. *)

  val add_words : t -> bytes -> int -> int
  (** [add_words b buf n] appends the [n] little-endian 64-bit words at
      the start of [buf], each an event packed as by {!Event.pack}, in
      one loop that grows the buffer at most once.  It stops at the
      first word {!Event.packed_ok} rejects, leaving that word and the
      rest unadded, and returns how many it added: [n] when every word
      is good.  The binary trace decoder's entry point. *)

  val length : t -> int

  val last_proc : t -> int option
  (** Procedure of the most recently added event, if any — used by trace
      generators to decide between [Run] and transition kinds. *)

  val build : t -> trace
  (** The events added so far.  The builder may keep being used
      afterwards without changing the built trace.  When the buffer is
      exactly full, [build] hands it over without copying and the next
      {!add} grows into a fresh copy; size [capacity] to the final
      length to get that.  A partly filled buffer is copied to size. *)
end
