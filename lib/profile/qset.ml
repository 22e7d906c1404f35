(* An intrusive doubly linked list threaded through arrays indexed by id:
   [prev.(id)]/[next.(id)] link the members, [size.(id)] caches
   [size_of id] from the first time [id] is appended (0 until then).  A
   reference touches only these arrays, so the per-reference path
   allocates nothing; the arrays grow (by doubling) to the largest id
   seen. *)

let nil = -1

(* [prev.(id)] of an id that is not in Q. *)
let absent = -2

type stats = { avg_entries : float; max_entries : int; steps : int }

type t = {
  capacity_bytes : int;
  size_of : int -> int;
  mutable prev : int array;
  mutable next : int array;
  mutable size : int array;
  mutable head : int; (* least recent, or [nil] *)
  mutable tail : int; (* most recent, or [nil] *)
  mutable bytes : int;
  mutable count : int;
  mutable sum_len : int;
  mutable max_len : int;
  mutable steps : int;
}

let create ~capacity_bytes ~size_of =
  if capacity_bytes <= 0 then invalid_arg "Qset.create: capacity must be positive";
  {
    capacity_bytes;
    size_of;
    prev = Array.make 64 absent;
    next = Array.make 64 nil;
    size = Array.make 64 0;
    head = nil;
    tail = nil;
    bytes = 0;
    count = 0;
    sum_len = 0;
    max_len = 0;
    steps = 0;
  }

let grow t id =
  let n = max (id + 1) (2 * Array.length t.prev) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.prev <- extend t.prev absent;
  t.next <- extend t.next nil;
  t.size <- extend t.size 0

let append t id =
  let size =
    match t.size.(id) with
    | 0 ->
      let size = t.size_of id in
      t.size.(id) <- size;
      size
    | size -> size
  in
  t.prev.(id) <- t.tail;
  t.next.(id) <- nil;
  if t.tail = nil then t.head <- id else t.next.(t.tail) <- id;
  t.tail <- id;
  t.bytes <- t.bytes + size;
  t.count <- t.count + 1

let unlink t id =
  let p = t.prev.(id) and n = t.next.(id) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p;
  t.prev.(id) <- absent;
  t.bytes <- t.bytes - t.size.(id);
  t.count <- t.count - 1

let evict_while_allowed t =
  while t.count > 1 && t.bytes - t.size.(t.head) >= t.capacity_bytes do
    unlink t t.head
  done

let record_step t =
  t.steps <- t.steps + 1;
  t.sum_len <- t.sum_len + t.count;
  if t.count > t.max_len then t.max_len <- t.count

let reference t p ~between =
  if p < 0 then invalid_arg "Qset.reference: negative id";
  if p >= Array.length t.prev then grow t p;
  let result =
    if t.prev.(p) <> absent then begin
      (* Report every id referenced after the previous occurrence of p;
         these become TRG edge increments e_{p,q}. *)
      let cursor = ref t.next.(p) in
      while !cursor <> nil do
        between !cursor;
        cursor := t.next.(!cursor)
      done;
      unlink t p;
      append t p;
      true
    end
    else begin
      append t p;
      evict_while_allowed t;
      false
    end
  in
  record_step t;
  result

(* [reference] with the edge counting of {!Graph.Counts.add_chain} in
   place of [between]: the same walk over the same ids. *)
let count t p counts =
  if p < 0 then invalid_arg "Qset.count: negative id";
  if p >= Array.length t.prev then grow t p;
  let incrs =
    if t.prev.(p) <> absent then begin
      let incrs = Graph.Counts.add_chain counts p ~next:t.next t.next.(p) in
      unlink t p;
      append t p;
      incrs
    end
    else begin
      append t p;
      evict_while_allowed t;
      0
    end
  in
  record_step t;
  incrs

let members t =
  let rec walk acc id =
    if id = nil then List.rev acc else walk (id :: acc) t.next.(id)
  in
  walk [] t.head

let length t = t.count

let total_bytes t = t.bytes

let stats t =
  {
    avg_entries =
      (if t.steps = 0 then 0. else float_of_int t.sum_len /. float_of_int t.steps);
    max_entries = t.max_len;
    steps = t.steps;
  }
