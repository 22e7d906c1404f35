module Chunk = Trg_program.Chunk

type t = {
  arity : int;
  tbl : (int, (int list, float) Hashtbl.t) Hashtbl.t;
      (* p -> sorted id list -> weight *)
}

type built = { db : t; qstats : Qset.stats }

let create ~arity =
  if arity < 1 then invalid_arg "Tuple_db.create: arity must be >= 1";
  { arity; tbl = Hashtbl.create 256 }

let arity t = t.arity

let normalize t ~p ids =
  if List.length ids <> t.arity then
    invalid_arg "Tuple_db: wrong tuple size";
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> t.arity then invalid_arg "Tuple_db: duplicate ids";
  if List.mem p sorted then invalid_arg "Tuple_db: tuple member equals p";
  sorted

let add t ~p ~ids w =
  let key = normalize t ~p ids in
  let inner =
    match Hashtbl.find_opt t.tbl p with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 16 in
      Hashtbl.add t.tbl p h;
      h
  in
  match Hashtbl.find_opt inner key with
  | Some old -> Hashtbl.replace inner key (old +. w)
  | None -> Hashtbl.add inner key w

let count t ~p ~ids =
  match Hashtbl.find_opt t.tbl p with
  | None -> 0.
  | Some inner -> (
    match Hashtbl.find_opt inner (normalize t ~p ids) with
    | Some w -> w
    | None -> 0.)

let iter_p t p f =
  match Hashtbl.find_opt t.tbl p with
  | None -> ()
  | Some inner -> Hashtbl.iter f inner

let iter t f =
  Hashtbl.iter (fun p inner -> Hashtbl.iter (fun ids w -> f p ids w) inner) t.tbl

let n_entries t = Hashtbl.fold (fun _ inner acc -> acc + Hashtbl.length inner) t.tbl 0

let default_max_between arity = if arity <= 2 then 24 else if arity = 3 then 12 else 10

(* All [k]-subsets of [l], each sorted as [l] is. *)
let rec subsets k l =
  if k = 0 then [ [] ]
  else
    match l with
    | [] -> []
    | x :: rest ->
      List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

let build_stream ~arity ~capacity_bytes ~size_of ?max_between feed =
  let max_between =
    match max_between with Some m -> m | None -> default_max_between arity
  in
  let db = create ~arity in
  let q = Qset.create ~capacity_bytes ~size_of in
  let last = ref (-1) in
  let buffer = ref [] in
  let emit p =
    if p <> !last then begin
      last := p;
      buffer := [];
      let had_prior =
        Qset.reference q p ~between:(fun inter -> buffer := inter :: !buffer)
      in
      if had_prior then begin
        (* Most recent [max_between] interveners. *)
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: rest -> x :: take (n - 1) rest
        in
        let inter = List.sort compare (take max_between !buffer) in
        List.iter (fun ids -> add db ~p ~ids 1.) (subsets arity inter)
      end
    end
  in
  feed emit;
  { db; qstats = Qset.stats q }

let build_place ?keep ~arity ~capacity_bytes ?max_between chunks trace =
  build_stream ~arity ~capacity_bytes ~size_of:(Chunk.size_of chunks) ?max_between
    (Trg.iter_chunks ?keep chunks trace)
