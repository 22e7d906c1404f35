module Chunk = Trg_program.Chunk

type t = (int, (int, float) Hashtbl.t) Hashtbl.t
(* p -> packed canonical (r, s) -> weight *)

type built = { db : t; qstats : Qset.stats }

let create () : t = Hashtbl.create 256

let key r s =
  if r = s then invalid_arg "Pair_db: pair members must differ";
  if r < s then (r lsl 24) lor s else (s lsl 24) lor r

let add t ~p ~r ~s w =
  if r = p || s = p then invalid_arg "Pair_db.add: pair member equals p";
  let inner =
    match Hashtbl.find_opt t p with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 16 in
      Hashtbl.add t p h;
      h
  in
  let k = key r s in
  match Hashtbl.find_opt inner k with
  | Some old -> Hashtbl.replace inner k (old +. w)
  | None -> Hashtbl.add inner k w

let count t ~p ~r ~s =
  match Hashtbl.find_opt t p with
  | None -> 0.
  | Some inner -> (
    match Hashtbl.find_opt inner (key r s) with Some w -> w | None -> 0.)

let iter_p t p f =
  match Hashtbl.find_opt t p with
  | None -> ()
  | Some inner -> Hashtbl.iter (fun k w -> f (k lsr 24) (k land 0xFFFFFF) w) inner

let iter t f =
  Hashtbl.iter
    (fun p inner -> Hashtbl.iter (fun k w -> f p (k lsr 24) (k land 0xFFFFFF) w) inner)
    t

let n_entries t = Hashtbl.fold (fun _ inner acc -> acc + Hashtbl.length inner) t 0

let build_stream ~capacity_bytes ~size_of ?(max_between = 64) feed =
  let db = create () in
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
        (* [buffer] holds the intervening ids, most recent first; keep the
           most recent [max_between] of them. *)
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: rest -> x :: take (n - 1) rest
        in
        let inter = take max_between !buffer in
        let rec pairs = function
          | [] -> ()
          | r :: rest ->
            List.iter (fun s -> add db ~p ~r ~s 1.) rest;
            pairs rest
        in
        pairs inter
      end
    end
  in
  feed emit;
  { db; qstats = Qset.stats q }

let build_place ?keep ~capacity_bytes ?max_between chunks trace =
  build_stream ~capacity_bytes ~size_of:(Chunk.size_of chunks) ?max_between
    (Trg.iter_chunks ?keep chunks trace)
