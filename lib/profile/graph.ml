let max_id = 1 lsl 24

type t = {
  weights : (int, float) Hashtbl.t; (* packed canonical (u, v) -> weight *)
  adj : (int, int list ref) Hashtbl.t; (* node -> neighbor ids *)
}

let create ?(hint = 256) () =
  { weights = Hashtbl.create hint; adj = Hashtbl.create hint }

let check id =
  if id < 0 || id >= max_id then
    invalid_arg (Printf.sprintf "Graph: node id %d out of range" id)

(* Canonical packed key: smaller id in the high bits. *)
let key u v = if u < v then (u lsl 24) lor v else (v lsl 24) lor u

let attach t u v =
  match Hashtbl.find_opt t.adj u with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add t.adj u (ref [ v ])

let add_edge t u v w =
  check u;
  check v;
  if u <> v then begin
    let k = key u v in
    match Hashtbl.find_opt t.weights k with
    | Some old -> Hashtbl.replace t.weights k (old +. w)
    | None ->
      Hashtbl.add t.weights k w;
      attach t u v;
      attach t v u
  end

module Counts = struct
  type graph = t

  let create_graph = create

  (* Open addressing with linear probing, at most half full.  [keys]
     holds packed canonical pairs ([free] when unused) and [slot_edge]
     each key's index into the dense arrays, which keep every edge's
     first oriented pair and its count in first-seen order. *)
  type t = {
    hint : int;
    mutable keys : int array;
    mutable slot_edge : int array;
    mutable first : int array;
    mutable count : int array;
    mutable n : int;
    mutable bits : int;
  }

  let free = -1

  let create ?(hint = 256) () =
    let bits = ref 4 in
    while 1 lsl !bits < 2 * hint do
      incr bits
    done;
    let dense = max 16 hint in
    {
      hint;
      keys = Array.make (1 lsl !bits) free;
      slot_edge = Array.make (1 lsl !bits) 0;
      first = Array.make dense 0;
      count = Array.make dense 0;
      n = 0;
      bits = !bits;
    }

  (* Fibonacci hashing: the top [bits] bits of the 63-bit product. *)
  let slot t k = (k * 0x9E3779B97F4A7C1) lsr (63 - t.bits)

  let find_slot t k =
    let mask = Array.length t.keys - 1 in
    let s = ref (slot t k) in
    while t.keys.(!s) <> k && t.keys.(!s) <> free do
      s := (!s + 1) land mask
    done;
    !s

  let rehash t =
    t.bits <- t.bits + 1;
    t.keys <- Array.make (1 lsl t.bits) free;
    t.slot_edge <- Array.make (1 lsl t.bits) 0;
    for e = 0 to t.n - 1 do
      let o = t.first.(e) in
      let k = key (o lsr 24) (o land 0xFFFFFF) in
      let s = find_slot t k in
      t.keys.(s) <- k;
      t.slot_edge.(s) <- e
    done

  let grow_dense t =
    let extend a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.first <- extend t.first;
    t.count <- extend t.count

  let add t p q =
    check p;
    check q;
    if p <> q then begin
      if 2 * (t.n + 1) > Array.length t.keys then rehash t;
      let k = key p q in
      let s = find_slot t k in
      if t.keys.(s) = k then begin
        let e = t.slot_edge.(s) in
        t.count.(e) <- t.count.(e) + 1
      end
      else begin
        if t.n = Array.length t.first then grow_dense t;
        t.keys.(s) <- k;
        t.slot_edge.(s) <- t.n;
        t.first.(t.n) <- (p lsl 24) lor q;
        t.count.(t.n) <- 1;
        t.n <- t.n + 1
      end
    end

  let to_graph t : graph =
    let g = create_graph ~hint:t.hint () in
    for e = 0 to t.n - 1 do
      let o = t.first.(e) in
      add_edge g (o lsr 24) (o land 0xFFFFFF) (float_of_int t.count.(e))
    done;
    g
end

let set_edge t u v w =
  check u;
  check v;
  if u <> v then begin
    let k = key u v in
    if not (Hashtbl.mem t.weights k) then begin
      attach t u v;
      attach t v u
    end;
    Hashtbl.replace t.weights k w
  end

let weight t u v =
  if u = v then 0.
  else match Hashtbl.find_opt t.weights (key u v) with Some w -> w | None -> 0.

let mem_edge t u v = u <> v && Hashtbl.mem t.weights (key u v)

let neighbors t u =
  match Hashtbl.find_opt t.adj u with Some l -> !l | None -> []

let degree t u = List.length (neighbors t u)

let nodes t =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.adj [] in
  List.sort compare ids

let n_nodes t = Hashtbl.length t.adj

let n_edges t = Hashtbl.length t.weights

let edges t =
  let arr = Array.make (Hashtbl.length t.weights) (0, 0, 0.) in
  let i = ref 0 in
  Hashtbl.iter
    (fun k w ->
      arr.(!i) <- (k lsr 24, k land 0xFFFFFF, w);
      incr i)
    t.weights;
  Array.sort compare arr;
  arr

let total_weight t = Hashtbl.fold (fun _ w acc -> acc +. w) t.weights 0.

let iter_edges f t = Array.iter (fun (u, v, w) -> f u v w) (edges t)

(* Straight off the weight table: no sort, no per-edge tuple.  Only for
   order-insensitive folds. *)
let iter_edges_unordered f t =
  Hashtbl.iter (fun k w -> f (k lsr 24) (k land 0xFFFFFF) w) t.weights

let copy t =
  {
    weights = Hashtbl.copy t.weights;
    adj =
      (let adj = Hashtbl.create (Hashtbl.length t.adj) in
       Hashtbl.iter (fun u l -> Hashtbl.add adj u (ref !l)) t.adj;
       adj);
  }

let map_weights f t =
  let out = create ~hint:(Hashtbl.length t.weights) () in
  iter_edges (fun u v w -> set_edge out u v (f u v w)) t;
  out

let filter_nodes keep t =
  let out = create ~hint:(Hashtbl.length t.weights) () in
  iter_edges (fun u v w -> if keep u && keep v then set_edge out u v w) t;
  out

let of_edges l =
  let t = create () in
  List.iter (fun (u, v, w) -> add_edge t u v w) l;
  t

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
  let mentioned = Hashtbl.create 64 in
  iter_edges
    (fun u v w ->
      if w >= min_weight then begin
        Hashtbl.replace mentioned u ();
        Hashtbl.replace mentioned v ();
        Buffer.add_string buf
          (Printf.sprintf "  \"%s\" -- \"%s\" [label=\"%g\", penwidth=%.2f];\n"
             (name u) (name v) w
             (0.5 +. (3.5 *. w /. !max_w)))
      end)
    t;
  List.iter
    (fun n ->
      if not (Hashtbl.mem mentioned n) then
        Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" (name n)))
    (nodes t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
