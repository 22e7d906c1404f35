open Bigarray

(* Packed events ({!Event.pack}) in a native-int Bigarray: one machine
   word per event, off the OCaml heap.  Every access below is at this
   concrete kind and layout, so the compiler emits a plain load or store;
   a Bigarray access whose kind is left polymorphic compiles to a
   generic C call that boxes its result. *)
type t = (int, int_elt, c_layout) Array1.t

let alloc n : t = Array1.create Int C_layout n

let length (t : t) = Array1.dim t

let packed (t : t) i = Array1.get t i

let unsafe_packed (t : t) i = Array1.unsafe_get t i

let get t i = Event.unpack (packed t i)

let iter f (t : t) =
  for i = 0 to length t - 1 do
    f (Event.unpack (Array1.unsafe_get t i))
  done

let iteri f (t : t) =
  for i = 0 to length t - 1 do
    f i (Event.unpack (Array1.unsafe_get t i))
  done

let fold f init (t : t) =
  let acc = ref init in
  for i = 0 to length t - 1 do
    acc := f !acc (Event.unpack (Array1.unsafe_get t i))
  done;
  !acc

let of_events events =
  let t = alloc (Array.length events) in
  Array.iteri (fun i e -> Array1.unsafe_set t i (Event.pack e)) events;
  t

let of_list events = of_events (Array.of_list events)

let to_list t = List.init (length t) (get t)

let copy (t : t) =
  let c = alloc (length t) in
  Array1.blit t c;
  c

let sub t ~pos ~len = copy (Array1.sub t pos len)

let concat ts =
  let c = alloc (List.fold_left (fun n t -> n + length t) 0 ts) in
  ignore
    (List.fold_left
       (fun pos t ->
         Array1.blit t (Array1.sub c pos (length t));
         pos + length t)
       0 ts);
  c

let procs_of t =
  let seen = Hashtbl.create 64 in
  for i = 0 to length t - 1 do
    let p = Event.packed_proc (packed t i) in
    if not (Hashtbl.mem seen p) then Hashtbl.add seen p ()
  done;
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) seen [])

module Flat = struct
  type nonrec t = t

  let length = length

  let of_trace t = t

  let to_trace t = t

  let get = get

  let get_packed = packed

  let iter = iter
end

module Builder = struct
  type trace = t

  type t = { mutable data : trace; mutable size : int }

  let create ?(capacity = 1024) () = { data = alloc (max capacity 1); size = 0 }

  (* Room for [n] more events.  Growth always copies into a fresh
     buffer, so a buffer [build] has handed over is never written
     again. *)
  let reserve b n =
    if b.size + n > length b.data then begin
      let data = alloc (Int.max (2 * b.size) (b.size + n)) in
      Array1.blit b.data (Array1.sub data 0 b.size);
      b.data <- data
    end

  let add b event =
    let w = Event.pack event in
    Event.check_packed w;
    reserve b 1;
    Array1.unsafe_set b.data b.size w;
    b.size <- b.size + 1

  let add_words b buf n =
    reserve b n;
    let data = b.data and base = b.size in
    let k = ref 0 and stop = ref n in
    while !k < !stop do
      let w = Int64.to_int (Bytes.get_int64_le buf (8 * !k)) in
      if Event.packed_ok w then begin
        Array1.unsafe_set data (base + !k) w;
        incr k
      end
      else stop := !k
    done;
    b.size <- base + !k;
    !k

  let length b = b.size

  let last_proc b =
    if b.size = 0 then None else Some (Event.packed_proc (packed b.data (b.size - 1)))

  (* A full buffer is handed over as the trace itself (the next [add]
     grows into a copy); a partly filled one is copied down to size, so
     the trace holds no slack. *)
  let build b =
    if b.size = Array1.dim b.data then b.data else copy (Array1.sub b.data 0 b.size)
end
