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

(* Every index below is below the arrays' common length: a referenced
   id once [reference] or [count] has grown the arrays past it, or an id
   linked in Q, which was such an id when it entered.  So the arrays are
   read and written unchecked. *)
let[@inline] get (a : int array) i = Array.unsafe_get a i

let[@inline] set (a : int array) i x = Array.unsafe_set a i x

let append t id =
  let size =
    match get t.size id with
    | 0 ->
      let size = t.size_of id in
      set t.size id size;
      size
    | size -> size
  in
  set t.prev id t.tail;
  set t.next id nil;
  if t.tail = nil then t.head <- id else set t.next t.tail id;
  t.tail <- id;
  t.bytes <- t.bytes + size;
  t.count <- t.count + 1

let unlink t id =
  let p = get t.prev id and n = get t.next id in
  if p = nil then t.head <- n else set t.next p n;
  if n = nil then t.tail <- p else set t.prev n p;
  set t.prev id absent;
  t.bytes <- t.bytes - get t.size id;
  t.count <- t.count - 1

(* [unlink] then [append] of a member: it moves to the most recent end,
   and Q's bytes and count stay as they were. *)
let[@inline] requeue t id =
  let tail = t.tail in
  if id <> tail then begin
    let p = get t.prev id and n = get t.next id in
    if p = nil then t.head <- n else set t.next p n;
    set t.prev n p;
    set t.prev id tail;
    set t.next id nil;
    set t.next tail id;
    t.tail <- id
  end

let evict_while_allowed t =
  while t.count > 1 && t.bytes - get t.size t.head >= t.capacity_bytes do
    unlink t t.head
  done

let[@inline] record_step t =
  t.steps <- t.steps + 1;
  t.sum_len <- t.sum_len + t.count;
  if t.count > t.max_len then t.max_len <- t.count

let reference t p ~between =
  if p < 0 then invalid_arg "Qset.reference: negative id";
  if p >= Array.length t.prev then grow t p;
  let result =
    if get t.prev p <> absent then begin
      (* Report every id referenced after the previous occurrence of p;
         these become TRG edge increments e_{p,q}. *)
      let cursor = ref (get t.next p) in
      while !cursor <> nil do
        between !cursor;
        cursor := get t.next !cursor
      done;
      requeue t p;
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

(* [reference] with an inlined {!Graph.Counts.add} in place of
   [between]: the same walk over the same ids.  It is inlined too, so a
   TRG stream's reference is one loop with no call on its hit path. *)
let[@inline] count t p counts =
  if p < 0 then invalid_arg "Qset.count: negative id";
  if p >= Array.length t.prev then grow t p;
  let incrs =
    if get t.prev p <> absent then begin
      let next = t.next in
      let cursor = ref (get next p) and n = ref 0 in
      while !cursor <> nil do
        Graph.Counts.add counts p !cursor;
        incr n;
        cursor := get next !cursor
      done;
      requeue t p;
      !n
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
