module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Config = Trg_cache.Config

let occupants ?only program (config : Config.t) layout =
  let n_sets = Config.n_sets config in
  let keep =
    match only with
    | Some f -> f
    | None -> fun p -> Program.size program p <= config.Config.size
  in
  let g = Geometry.of_procs program ~line_size:config.Config.line_size ~n_sets in
  let sets = Array.make n_sets [] in
  (* Descending, so each set lists its procedures ascending. *)
  for p = Program.n_procs program - 1 downto 0 do
    if keep p then begin
      let address = Layout.address layout p in
      Geometry.iter_sets g
        (Geometry.placed_start g ~address p)
        (Geometry.placed_lines g ~address p)
        (fun s -> sets.(s) <- p :: sets.(s))
    end
  done;
  sets

let cache_map ?only program config layout =
  let sets = occupants ?only program config layout in
  let buf = Buffer.create 4096 in
  let render lo hi occ =
    Buffer.add_string buf
      (Printf.sprintf "  sets %03d-%03d: %s\n" lo hi
         (match occ with
         | [] -> "-"
         | l -> String.concat " " (List.map (Program.name program) l)))
  in
  let n = Array.length sets in
  let run_start = ref 0 in
  for s = 1 to n do
    if s = n || sets.(s) <> sets.(!run_start) then begin
      render !run_start (s - 1) sets.(!run_start);
      run_start := s
    end
  done;
  Buffer.contents buf

let occupancy_summary ?only program config layout =
  let sets = occupants ?only program config layout in
  let max_occ = Array.fold_left (fun acc l -> max acc (List.length l)) 0 sets in
  let counts = Array.make (max_occ + 1) 0 in
  Array.iter (fun l -> counts.(List.length l) <- counts.(List.length l) + 1) sets;
  let buf = Buffer.create 256 in
  Array.iteri
    (fun occ n ->
      if n > 0 then
        Buffer.add_string buf (Printf.sprintf "  %d procedure(s): %d sets\n" occ n))
    counts;
  Buffer.contents buf
