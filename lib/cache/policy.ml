type kind = Lru | Fifo | Mru | Plru | Qlru_h00 | Qlru_h11

let all = [ Lru; Fifo; Mru; Plru; Qlru_h00; Qlru_h11 ]

let to_string = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Mru -> "mru"
  | Plru -> "plru"
  | Qlru_h00 -> "qlru-h00"
  | Qlru_h11 -> "qlru-h11"

let names = List.map to_string all

let of_string s =
  match List.find_opt (fun k -> to_string k = s) all with
  | Some k -> Ok k
  | None ->
    Error
      (Printf.sprintf "unknown replacement policy %S (choose from: %s)" s
         (String.concat ", " names))

let describe = function
  | Lru -> "true least-recently-used"
  | Fifo -> "first-in first-out (round-robin fill)"
  | Mru -> "evict the most recently used way"
  | Plru -> "tree pseudo-LRU (one direction bit per tree node)"
  | Qlru_h00 -> "quad-age LRU; a hit resets the age to 0"
  | Qlru_h11 -> "quad-age LRU; a hit takes age 3 to 1, others to 0"

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate kind ~assoc =
  if assoc < 1 then invalid_arg "Policy: associativity must be positive";
  match kind with
  | Plru when not (is_pow2 assoc) ->
    invalid_arg "Policy: Tree-PLRU requires power-of-two associativity"
  | _ -> ()

let log2 assoc =
  let rec go acc = function 1 -> acc | k -> go (acc + 1) (k / 2) in
  go 0 assoc

(* QLRU constants: lines are inserted at age 1; the victim is the
   leftmost way at age 3, renormalising every age upward first when no
   way is there.  Only the hit function differs between the variants. *)
let qlru_insert_age = 1

let qlru_max_age = 3

(* --- the optimized engine --------------------------------------------- *)

module Probe = struct
  type t = {
    kind : kind;
    n_sets : int;
    assoc : int;
    levels : int;  (* log2 assoc, for the PLRU tree walk *)
    tags : int array;
        (* n_sets * assoc; -1 = invalid.  Under LRU and MRU each set's
           slice is kept most recently used first; every other policy
           indexes it by way. *)
    state : int array;
        (* per-set policy state: the round-robin pointer (FIFO),
           heap-indexed tree direction bits (PLRU, slots 1..assoc-1) or
           two-bit ages (QLRU); empty under LRU and MRU *)
  }

  let create kind ~n_sets ~assoc =
    validate kind ~assoc;
    if n_sets < 1 then invalid_arg "Policy.Probe.create: n_sets must be positive";
    let state =
      match kind with
      | Lru | Mru -> [||]
      | Fifo -> Array.make n_sets 0
      | Plru | Qlru_h00 | Qlru_h11 -> Array.make (n_sets * assoc) 0
    in
    {
      kind;
      n_sets;
      assoc;
      levels = log2 assoc;
      tags = Array.make (n_sets * assoc) (-1);
      state;
    }

  (* True LRU and MRU: the referenced tag moves to the front of its
     set's slice.  On a miss the search ends at the last way, which holds
     -1 while the set is not full.  A full set evicts its least recent
     line under LRU, shifted out at the back, and its most recent under
     MRU, overwritten in place at the front. *)
  let access_recency t la =
    let base = (la mod t.n_sets) * t.assoc in
    let last = t.assoc - 1 in
    let w = ref 0 in
    while !w < last && t.tags.(base + !w) <> la do
      incr w
    done;
    let code = if t.tags.(base + !w) = la then -2 else t.tags.(base + last) in
    if code >= 0 && t.kind = Mru then begin
      let victim = t.tags.(base) in
      t.tags.(base) <- la;
      victim
    end
    else begin
      for w' = !w downto 1 do
        t.tags.(base + w') <- t.tags.(base + w' - 1)
      done;
      t.tags.(base) <- la;
      code
    end

  (* PLRU tree walk: set every bit on the path to [w] to point away from
     it (bit = 1 means "go to the high-way subtree"). *)
  let plru_touch t base w =
    let node = ref 1 in
    for level = t.levels - 1 downto 0 do
      let dir = (w lsr level) land 1 in
      t.state.(base + !node) <- (if dir = 0 then 1 else 0);
      node := (2 * !node) + dir
    done

  let plru_victim t base =
    let node = ref 1 in
    let way = ref 0 in
    for _ = 1 to t.levels do
      let dir = t.state.(base + !node) in
      way := (2 * !way) + dir;
      node := (2 * !node) + dir
    done;
    !way

  let qlru_victim t base =
    let max_age = ref 0 in
    for w = 0 to t.assoc - 1 do
      if t.state.(base + w) > !max_age then max_age := t.state.(base + w)
    done;
    if !max_age < qlru_max_age then begin
      let bump = qlru_max_age - !max_age in
      for w = 0 to t.assoc - 1 do
        t.state.(base + w) <- t.state.(base + w) + bump
      done
    end;
    let way = ref (-1) in
    for w = t.assoc - 1 downto 0 do
      if t.state.(base + w) = qlru_max_age then way := w
    done;
    !way

  (* [touch], [victim] and [fill] serve the way-indexed policies; LRU
     and MRU never reach them (see [access]). *)
  let touch t base w =
    match t.kind with
    | Fifo -> ()
    | Plru -> plru_touch t base w
    | Qlru_h00 -> t.state.(base + w) <- 0
    | Qlru_h11 ->
      t.state.(base + w) <-
        (if t.state.(base + w) = qlru_max_age then 1 else 0)
    | Lru | Mru -> assert false

  let victim t set base =
    match t.kind with
    | Fifo -> t.state.(set)
    | Plru -> plru_victim t base
    | Qlru_h00 | Qlru_h11 -> qlru_victim t base
    | Lru | Mru -> assert false

  let fill t set base w =
    match t.kind with
    | Fifo -> t.state.(set) <- (w + 1) mod t.assoc
    | Plru -> plru_touch t base w
    | Qlru_h00 | Qlru_h11 -> t.state.(base + w) <- qlru_insert_age
    | Lru | Mru -> assert false

  let access_ways t la =
    let set = la mod t.n_sets in
    let base = set * t.assoc in
    let way = ref 0 in
    while !way < t.assoc && t.tags.(base + !way) <> la do
      incr way
    done;
    if !way < t.assoc then begin
      touch t base !way;
      -2
    end
    else begin
      (* Valid-first fill: the lowest-numbered invalid way, if any,
         before the policy is consulted for a victim. *)
      let invalid = ref 0 in
      while !invalid < t.assoc && t.tags.(base + !invalid) >= 0 do
        incr invalid
      done;
      let w = if !invalid < t.assoc then !invalid else victim t set base in
      let old = t.tags.(base + w) in
      t.tags.(base + w) <- la;
      fill t set base w;
      old
    end

  let access t la =
    match t.kind with
    | Lru | Mru -> access_recency t la
    | Fifo | Plru | Qlru_h00 | Qlru_h11 -> access_ways t la

  let hit code = code = -2
end

(* --- fully-associative LRU ------------------------------------------------ *)

module Full_lru = struct
  type t = {
    capacity : int;
    prev : int array;  (* recency chain over resident ids; -1 = nil *)
    next : int array;
    resident : Bytes.t;
    mutable head : int;  (* most recent *)
    mutable tail : int;  (* least recent *)
    mutable count : int;
  }

  let create ~capacity ~n_ids =
    {
      capacity;
      prev = Array.make n_ids (-1);
      next = Array.make n_ids (-1);
      resident = Bytes.make n_ids '\000';
      head = -1;
      tail = -1;
      count = 0;
    }

  let unlink t p =
    (match t.prev.(p) with -1 -> t.head <- t.next.(p) | q -> t.next.(q) <- t.next.(p));
    (match t.next.(p) with -1 -> t.tail <- t.prev.(p) | q -> t.prev.(q) <- t.prev.(p));
    t.prev.(p) <- -1;
    t.next.(p) <- -1

  let push_front t p =
    t.prev.(p) <- -1;
    t.next.(p) <- t.head;
    (match t.head with -1 -> t.tail <- p | h -> t.prev.(h) <- p);
    t.head <- p

  let access t id =
    if Bytes.get t.resident id <> '\000' then begin
      if t.head <> id then begin
        unlink t id;
        push_front t id
      end;
      true
    end
    else begin
      if t.count = t.capacity then begin
        let victim = t.tail in
        unlink t victim;
        Bytes.set t.resident victim '\000'
      end
      else t.count <- t.count + 1;
      Bytes.set t.resident id '\001';
      push_front t id;
      false
    end
end

(* --- brute-force references (tests only) ------------------------------- *)

module Reference = struct
  (* One record per set, everything as explicit lists; clarity over
     speed throughout — this model exists to be obviously correct. *)
  type set_state = {
    mutable recency : int list;  (* tags, most recent first (LRU/MRU) *)
    mutable queue : int list;  (* tags in fill order, oldest first (FIFO) *)
    mutable ways : int list;  (* way-indexed tags, -1 = invalid *)
    mutable bits : bool list;  (* PLRU tree nodes 1..assoc-1 *)
    mutable ages : (int * int) list;  (* way-ordered (tag, age) (QLRU) *)
  }

  type t = { kind : kind; n_sets : int; assoc : int; sets : set_state array }

  let create kind ~n_sets ~assoc =
    validate kind ~assoc;
    if n_sets < 1 then
      invalid_arg "Policy.Reference.create: n_sets must be positive";
    {
      kind;
      n_sets;
      assoc;
      sets =
        Array.init n_sets (fun _ ->
            {
              recency = [];
              queue = [];
              ways = List.init assoc (fun _ -> -1);
              bits = List.init (max 0 (assoc - 1)) (fun _ -> false);
              ages = [];
            });
    }

  let nth_replace l i v = List.mapi (fun j x -> if j = i then v else x) l

  let index_of x l =
    let rec go i = function
      | [] -> None
      | y :: _ when y = x -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 l

  (* LRU / MRU on an explicit recency list. *)
  let access_recency ~mru t s la =
    if List.mem la s.recency then begin
      s.recency <- la :: List.filter (fun x -> x <> la) s.recency;
      -2
    end
    else if List.length s.recency < t.assoc then begin
      s.recency <- la :: s.recency;
      -1
    end
    else begin
      let victim =
        if mru then List.hd s.recency else List.nth s.recency (t.assoc - 1)
      in
      s.recency <- la :: List.filter (fun x -> x <> victim) s.recency;
      victim
    end

  let access_fifo t s la =
    if List.mem la s.queue then -2
    else if List.length s.queue < t.assoc then begin
      s.queue <- s.queue @ [ la ];
      -1
    end
    else begin
      let victim = List.hd s.queue in
      s.queue <- List.tl s.queue @ [ la ];
      victim
    end

  (* PLRU over an explicit node list: node i of the heap-indexed tree
     lives at list position i - 1. *)
  let plru_point_away t s way =
    let levels = log2 t.assoc in
    let node = ref 1 in
    for level = levels - 1 downto 0 do
      let dir = (way lsr level) land 1 in
      s.bits <- nth_replace s.bits (!node - 1) (dir = 0);
      node := (2 * !node) + dir
    done

  let plru_follow t s =
    let levels = log2 t.assoc in
    let node = ref 1 in
    let way = ref 0 in
    for _ = 1 to levels do
      let dir = if List.nth s.bits (!node - 1) then 1 else 0 in
      way := (2 * !way) + dir;
      node := (2 * !node) + dir
    done;
    !way

  let access_plru t s la =
    match index_of la s.ways with
    | Some way ->
      plru_point_away t s way;
      -2
    | None ->
      let way =
        match index_of (-1) s.ways with
        | Some w -> w
        | None -> plru_follow t s
      in
      let old = List.nth s.ways way in
      s.ways <- nth_replace s.ways way la;
      plru_point_away t s way;
      old

  let access_qlru ~on_hit t s la =
    match index_of la (List.map fst s.ages) with
    | Some way ->
      let _, age = List.nth s.ages way in
      s.ages <- nth_replace s.ages way (la, on_hit age);
      -2
    | None when List.length s.ages < t.assoc ->
      s.ages <- s.ages @ [ (la, qlru_insert_age) ];
      -1
    | None ->
      let ages =
        let max_age = List.fold_left (fun m (_, a) -> max m a) 0 s.ages in
        if max_age < qlru_max_age then
          List.map (fun (tag, a) -> (tag, a + qlru_max_age - max_age)) s.ages
        else s.ages
      in
      let way =
        match index_of qlru_max_age (List.map snd ages) with
        | Some w -> w
        | None -> assert false
      in
      let victim, _ = List.nth ages way in
      s.ages <- nth_replace ages way (la, qlru_insert_age);
      victim

  let access t la =
    let s = t.sets.(la mod t.n_sets) in
    match t.kind with
    | Lru -> access_recency ~mru:false t s la
    | Mru -> access_recency ~mru:true t s la
    | Fifo -> access_fifo t s la
    | Plru -> access_plru t s la
    | Qlru_h00 -> access_qlru ~on_hit:(fun _ -> 0) t s la
    | Qlru_h11 ->
      access_qlru ~on_hit:(fun age -> if age = qlru_max_age then 1 else 0) t s la
end
