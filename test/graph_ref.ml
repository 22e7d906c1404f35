(* Reference model of [Trg_profile.Graph]: the mutable hash-table graph
   the library used before its graphs were frozen into flat arrays.  It
   is deliberately naive: a [Hashtbl] of weights under the packed
   canonical pair, [int list ref] adjacency prepended on each new edge
   (so [neighbors] is newest first), and a list of keys in first-seen
   order for [iter_edges_unordered].  Tests only. *)

let max_id = 1 lsl 24

type t = {
  weights : (int, float) Hashtbl.t; (* packed canonical (u, v) -> weight *)
  adj : (int, int list ref) Hashtbl.t; (* node -> neighbor ids *)
  mutable seen : int list; (* keys, newest first *)
  mutable met : int list; (* node ids, newest first *)
}

let create ?(hint = 256) () =
  { weights = Hashtbl.create hint; adj = Hashtbl.create hint; seen = []; met = [] }

let check id =
  if id < 0 || id >= max_id then
    invalid_arg (Printf.sprintf "Graph: node id %d out of range" id)

let key u v = if u < v then (u lsl 24) lor v else (v lsl 24) lor u

let attach t u v =
  match Hashtbl.find_opt t.adj u with
  | Some l -> l := v :: !l
  | None ->
    t.met <- u :: t.met;
    Hashtbl.add t.adj u (ref [ v ])

let add_new t k u v w =
  Hashtbl.add t.weights k w;
  t.seen <- k :: t.seen;
  attach t u v;
  attach t v u

let add_edge t u v w =
  check u;
  check v;
  if u <> v then begin
    let k = key u v in
    match Hashtbl.find_opt t.weights k with
    | Some old -> Hashtbl.replace t.weights k (old +. w)
    | None -> add_new t k u v w
  end

let set_edge t u v w =
  check u;
  check v;
  if u <> v then begin
    let k = key u v in
    if Hashtbl.mem t.weights k then Hashtbl.replace t.weights k w
    else add_new t k u v w
  end

let weight t u v =
  if u = v then 0.
  else match Hashtbl.find_opt t.weights (key u v) with Some w -> w | None -> 0.

let mem_edge t u v = u <> v && Hashtbl.mem t.weights (key u v)

let neighbors t u = match Hashtbl.find_opt t.adj u with Some l -> !l | None -> []

let degree t u = List.length (neighbors t u)

let nodes t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.adj [])

let n_nodes t = Hashtbl.length t.adj

(* The ids in the order their first edges met them, each edge's ends in
   the order of its first add: the order [Graph.node_id] numbers. *)
let node_order t = List.rev t.met

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

let iter_edges f t = Array.iter (fun (u, v, w) -> f u v w) (edges t)

let iter_edges_unordered f t =
  List.iter
    (fun k -> f (k lsr 24) (k land 0xFFFFFF) (Hashtbl.find t.weights k))
    (List.rev t.seen)

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
