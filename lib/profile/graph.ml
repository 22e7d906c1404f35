let max_id = 1 lsl 24

let check id =
  if id < 0 || id >= max_id then
    invalid_arg (Printf.sprintf "Graph: node id %d out of range" id)

(* Canonical packed key: smaller id in the high bits. *)
let[@inline] key u v = if u < v then (u lsl 24) lor v else (v lsl 24) lor u

let low x = x land 0xFFFFFF

(* Non-negative [int] keys to [int] values: open addressing with linear
   probing, at most half full.  It numbers the edges of {!Counts} and
   indexes a frozen graph's edges and nodes.  A slot is two adjacent
   words, its key and its value, so a probe that finds its key reads the
   value from the same cache line.  A {!Table.snapshot} shares the
   array; the next insertion into the original copies it first, so a
   snapshot never changes. *)
module Table = struct
  type t = {
    mutable slots : int array; (* key at [2s], [free] when unused; value at [2s + 1] *)
    mutable bits : int; (* [2 lsl bits] words *)
    mutable size : int;
    mutable shared : bool;
  }

  let free = -1

  let create hint =
    let bits = ref 4 in
    while 1 lsl !bits < 2 * hint do
      incr bits
    done;
    { slots = Array.make (2 lsl !bits) free; bits = !bits; size = 0; shared = false }

  (* The index of [k]'s key, or of the free key where it would go.
     Fibonacci hashing: the top [bits] bits of the 63-bit product. *)
  let[@inline] find_slot t k =
    let slots = t.slots in
    let mask = Array.length slots - 2 in
    let i = ref (((k * 0x9E3779B97F4A7C1) lsr (63 - t.bits)) lsl 1) in
    while slots.(!i) <> k && slots.(!i) <> free do
      i := (!i + 2) land mask
    done;
    !i

  let find t k =
    if k < 0 then -1
    else
      let i = find_slot t k in
      if t.slots.(i) = k then t.slots.(i + 1) else -1

  let grow t =
    let old = t.slots in
    t.bits <- t.bits + 1;
    t.slots <- Array.make (2 lsl t.bits) free;
    t.shared <- false;
    for s = 0 to (Array.length old / 2) - 1 do
      let k = old.(2 * s) in
      if k <> free then begin
        let i = find_slot t k in
        t.slots.(i) <- k;
        t.slots.(i + 1) <- old.((2 * s) + 1)
      end
    done

  (* [k]'s value, after binding it to [v] if it had none. *)
  let find_or_add t k v =
    let i = find_slot t k in
    if t.slots.(i) = k then t.slots.(i + 1)
    else begin
      let i =
        if 2 * (t.size + 1) > 1 lsl t.bits then begin
          grow t;
          find_slot t k
        end
        else begin
          if t.shared then begin
            t.slots <- Array.copy t.slots;
            t.shared <- false
          end;
          i
        end
      in
      t.slots.(i) <- k;
      t.slots.(i + 1) <- v;
      t.size <- t.size + 1;
      v
    end

  let snapshot t =
    t.shared <- true;
    { t with shared = true }
end

(* Edge [e] joins the nodes packed in [ends.(e)] (oriented as first
   added) with weight [weights.(e)]; edges are numbered in first-seen
   order.  Node [i] (numbered in first-seen order, id [ids.(i)]) has the
   edges [adj.(adj_start.(i) .. adj_start.(i + 1) - 1)], newest first. *)
type t = {
  ends : int array;
  weights : float array;
  edge_of : Table.t; (* canonical key -> edge *)
  node_of : Table.t; (* id -> node *)
  ids : int array;
  adj_start : int array;
  adj : int array;
  canonical : int array Lazy.t; (* edges by ascending canonical key *)
  sorted_ids : int list Lazy.t;
}

(* The one builder: everything but the edges comes from [ends]. *)
let freeze ~ends ~weights ~edge_of =
  let n = Array.length ends in
  let node_of = Table.create 16 in
  let ids = Array.make (2 * n) 0 and deg = Array.make ((2 * n) + 1) 0 in
  let node x =
    let m = node_of.Table.size in
    let i = Table.find_or_add node_of x m in
    if i = m then ids.(m) <- x;
    deg.(i) <- deg.(i) + 1;
    i
  in
  (* Each edge's two node numbers, packed as its ids are. *)
  let ends_i =
    Array.map
      (fun x ->
        let a = node (x lsr 24) in
        (a lsl 24) lor node (low x))
      ends
  in
  let m = node_of.Table.size in
  let adj_start = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    adj_start.(i + 1) <- adj_start.(i) + deg.(i)
  done;
  (* Filling each node's slice back to front leaves its newest edge
     first. *)
  let next = Array.sub adj_start 1 m in
  let adj = Array.make (2 * n) 0 in
  let push i e =
    next.(i) <- next.(i) - 1;
    adj.(next.(i)) <- e
  in
  Array.iteri
    (fun e x ->
      push (x lsr 24) e;
      push (low x) e)
    ends_i;
  let ids = Array.sub ids 0 m in
  {
    ends;
    weights;
    edge_of;
    node_of;
    ids;
    adj_start;
    adj;
    canonical =
      lazy
        (let keys = Array.map (fun x -> key (x lsr 24) (low x)) ends in
         Array.stable_sort compare keys;
         Array.map (Table.find edge_of) keys);
    sorted_ids =
      lazy
        (let sorted = Array.copy ids in
         Array.stable_sort compare sorted;
         Array.to_list sorted);
  }

(* Edges listed in ascending canonical order, oriented [u < v]: the
   first-seen order of {!map_weights} and {!filter_nodes}. *)
let of_canonical ~ends ~weights =
  let edge_of = Table.create (Array.length ends) in
  Array.iteri (fun e k -> ignore (Table.find_or_add edge_of k e : int)) ends;
  freeze ~ends ~weights ~edge_of

module Counts = struct
  type graph = t

  (* [table] numbers each packed canonical pair in first-seen order;
     [first] keeps each edge's first oriented pair and [count] its
     count. *)
  type t = {
    table : Table.t;
    mutable first : int array;
    mutable count : int array;
  }

  let create ?(hint = 256) () =
    let dense = Int.max 16 hint in
    { table = Table.create hint; first = Array.make dense 0; count = Array.make dense 0 }

  let grow_dense t =
    let extend a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.first <- extend t.first;
    t.count <- extend t.count

  let add_new t p q k =
    let n = t.table.Table.size in
    ignore (Table.find_or_add t.table k n : int);
    if n = Array.length t.first then grow_dense t;
    t.first.(n) <- (p lsl 24) lor q;
    t.count.(n) <- 1

  (* The hot path, a repeat of a counted edge, is one probe and no
     other call. *)
  let add t p q =
    if (p lor q) lsr 24 <> 0 then begin
      check p;
      check q
    end;
    if p <> q then begin
      let k = key p q in
      let tbl = t.table in
      let i = Table.find_slot tbl k in
      if tbl.Table.slots.(i) = k then begin
        let e = tbl.Table.slots.(i + 1) in
        t.count.(e) <- t.count.(e) + 1
      end
      else add_new t p q k
    end

  (* Q's suffix walk ({!Qset.count}) counts through here, so the hit
     path of the probe sits inside the walk's loop: the dev build
     compiles each module on its own, and a call per increment would
     cost as much as the increment. *)
  let add_chain t p ~next q =
    let q = ref q and n = ref 0 in
    while !q >= 0 do
      let x = !q in
      if (p lor x) lsr 24 = 0 && p <> x then begin
        let k = key p x in
        let tbl = t.table in
        let i = Table.find_slot tbl k in
        if tbl.Table.slots.(i) = k then begin
          let e = tbl.Table.slots.(i + 1) in
          t.count.(e) <- t.count.(e) + 1
        end
        else add_new t p x k
      end
      else add t p x;
      incr n;
      q := next.(x)
    done;
    !n

  let length t = t.table.Table.size

  let index t p q =
    check p;
    check q;
    if p = q then -1 else Table.find t.table (key p q)

  let count t i =
    if i < 0 || i >= length t then invalid_arg "Graph.Counts.count: no such edge";
    t.count.(i)

  let to_graph t : graph =
    let n = length t in
    let weights = Array.make n 0. in
    for e = 0 to n - 1 do
      weights.(e) <- float_of_int t.count.(e)
    done;
    freeze ~ends:(Array.sub t.first 0 n) ~weights ~edge_of:(Table.snapshot t.table)
end

(* Ids outside [0, max_id) name no edge; without the range check they
   could pack onto the key of one that exists. *)
let edge t u v =
  if u = v || (u lor v) lsr 24 <> 0 then -1 else Table.find t.edge_of (key u v)

let weight t u v =
  let e = edge t u v in
  if e < 0 then 0. else t.weights.(e)

let mem_edge t u v = edge t u v >= 0

let other t e u =
  let x = t.ends.(e) in
  if x lsr 24 = u then low x else x lsr 24

let iter_neighbors t u f =
  let i = Table.find t.node_of u in
  if i >= 0 then
    for k = t.adj_start.(i) to t.adj_start.(i + 1) - 1 do
      let e = t.adj.(k) in
      f (other t e u) e
    done

let neighbors t u =
  let i = Table.find t.node_of u in
  if i < 0 then []
  else begin
    let l = ref [] in
    for k = t.adj_start.(i + 1) - 1 downto t.adj_start.(i) do
      l := other t t.adj.(k) u :: !l
    done;
    !l
  end

let degree t u =
  let i = Table.find t.node_of u in
  if i < 0 then 0 else t.adj_start.(i + 1) - t.adj_start.(i)

let nodes t = Lazy.force t.sorted_ids

let n_nodes t = Array.length t.ids

let n_edges t = Array.length t.ends

let edge_ends t e =
  let x = t.ends.(e) in
  key (x lsr 24) (low x)

let edge_weight t e = t.weights.(e)

let weights t = Array.copy t.weights

(* Edge [e] as [f u v w] with [u < v]. *)
let apply f t e =
  let x = edge_ends t e in
  f (x lsr 24) (low x) t.weights.(e)

let iter_edges f t = Array.iter (apply f t) (Lazy.force t.canonical)

let iter_edges_unordered f t =
  for e = 0 to n_edges t - 1 do
    apply f t e
  done

let edges t = Array.map (apply (fun u v w -> (u, v, w)) t) (Lazy.force t.canonical)

let total_weight t = Array.fold_left ( +. ) 0. t.weights

let copy t = t

let map_weights f t =
  let order = Lazy.force t.canonical in
  let ends = Array.map (edge_ends t) order in
  let weights = Array.make (Array.length order) 0. in
  Array.iteri (fun i e -> weights.(i) <- apply f t e) order;
  of_canonical ~ends ~weights

let filter_nodes keep t =
  let n = ref 0 in
  let ends = Array.make (n_edges t) 0 and weights = Array.make (n_edges t) 0. in
  iter_edges
    (fun u v w ->
      if keep u && keep v then begin
        ends.(!n) <- (u lsl 24) lor v;
        weights.(!n) <- w;
        incr n
      end)
    t;
  of_canonical ~ends:(Array.sub ends 0 !n) ~weights:(Array.sub weights 0 !n)

(* List order is first-seen order; a repeated edge adds its weight. *)
let of_edges l =
  let cap = List.length l in
  let edge_of = Table.create cap in
  let ends = Array.make cap 0 and weights = Array.make cap 0. in
  List.iter
    (fun (u, v, w) ->
      check u;
      check v;
      if u <> v then begin
        let n = edge_of.Table.size in
        let e = Table.find_or_add edge_of (key u v) n in
        if e < n then weights.(e) <- weights.(e) +. w
        else begin
          ends.(n) <- (u lsl 24) lor v;
          weights.(n) <- w
        end
      end)
    l;
  let n = edge_of.Table.size in
  freeze ~ends:(Array.sub ends 0 n) ~weights:(Array.sub weights 0 n) ~edge_of

let pp ?(name = string_of_int) ppf t =
  iter_edges
    (fun u v w -> Format.fprintf ppf "%s -- %s : %g@." (name u) (name v) w)
    t

let to_dot ?(name = string_of_int) ?(graph_name = "trg") ?(min_weight = 0.) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" graph_name);
  Buffer.add_string buf "  node [shape=box, fontsize=10];\n";
  let max_w = ref 1. in
  iter_edges (fun _ _ w -> if w > !max_w then max_w := w) t;
  iter_edges
    (fun u v w ->
      if w >= min_weight then
        Buffer.add_string buf
          (Printf.sprintf "  \"%s\" -- \"%s\" [label=\"%g\", penwidth=%.2f];\n"
             (name u) (name v) w
             (0.5 +. (3.5 *. w /. !max_w))))
    t;
  (* A node no drawn edge mentions is drawn on its own. *)
  List.iter
    (fun n ->
      let drawn = ref false in
      iter_neighbors t n (fun _ e -> if t.weights.(e) >= min_weight then drawn := true);
      if not !drawn then Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" (name n)))
    (nodes t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
