(* Reference model of [Trg_place.Linearize.layout]: the linearizer as the
   library wrote it before its gap filling moved onto a sorted array.
   [fill_gap] walks the size-ordered filler list from its head for every
   filler it places, skipping used and oversized entries.  The
   production linearizer must pick the same filler every time: the first
   unused one that fits, by decreasing size and then increasing id.
   Tests only. *)

module Program = Trg_program.Program
module Layout = Trg_program.Layout

let round_up x align = (x + align - 1) / align * align

(* Largest-fit gap filling: repeatedly place the biggest unpopular procedure
   that fits between [cursor] and [limit] (4-byte aligned). *)
let fill_gap program addr ~fillers ~cursor ~limit =
  let cur = ref (round_up cursor 4) in
  let continue = ref true in
  while !continue do
    let room = limit - !cur in
    if room <= 0 then continue := false
    else begin
      (* [fillers] is sorted by decreasing size; take the first unused
         procedure that fits. *)
      let found = ref None in
      (try
         List.iter
           (fun p ->
             if addr.(p) < 0 && Program.size program p <= room then begin
               found := Some p;
               raise Exit
             end)
           fillers
       with Exit -> ());
      match !found with
      | None -> continue := false
      | Some p ->
        addr.(p) <- !cur;
        cur := round_up (!cur + Program.size program p) 4
    end
  done

let layout ?affinity program ~line_size ~n_sets ~placed ~filler =
  let n = Program.n_procs program in
  let addr = Array.make n (-1) in
  List.iter
    (fun (_p, off) ->
      if off < 0 || off >= n_sets then
        invalid_arg (Printf.sprintf "Linearize: offset %d out of range" off))
    placed;
  let fillers_desc =
    List.sort
      (fun a b ->
        match compare (Program.size program b) (Program.size program a) with
        | 0 -> compare a b
        | c -> c)
      (Array.to_list filler)
  in
  let unplaced = Hashtbl.create 64 in
  List.iter (fun (p, off) -> Hashtbl.replace unplaced p off) placed;
  let cursor = ref 0 in
  let last_placed = ref (-1) in
  (* Pick the popular procedure minimizing the gap in cache lines from the
     current end-of-layout line; the very first pick minimizes the absolute
     offset, which realises the paper's "any starting offset will do".
     Gap ties fall to the affinity bias (page locality), then the id. *)
  (* With an affinity bias, a few lines of extra gap may be paid to keep
     temporally-related procedures adjacent; the cache-set alignment of
     every procedure is honoured either way. *)
  let affinity_window = 3 in
  let pick_next cur_line_set =
    let gap_of off = (off - cur_line_set + n_sets) mod n_sets in
    let min_gap =
      Hashtbl.fold (fun _ off acc -> min acc (gap_of off)) unplaced max_int
    in
    let score p =
      match affinity with
      | Some f when !last_placed >= 0 -> -.f !last_placed p
      | Some _ | None -> 0.
    in
    let window = match affinity with Some _ -> affinity_window | None -> 0 in
    Hashtbl.fold
      (fun p off best ->
        let gap = gap_of off in
        if gap > min_gap + window then best
        else
          let key = (score p, gap, p) in
          match best with
          | Some (bkey, _, _) when bkey <= key -> best
          | _ -> Some (key, gap, p))
      unplaced None
  in
  let rec place_populars () =
    let cur_line = (!cursor + line_size - 1) / line_size in
    match pick_next (cur_line mod n_sets) with
    | None -> ()
    | Some (_key, gap, p) ->
      Hashtbl.remove unplaced p;
      let target = (cur_line + gap) * line_size in
      fill_gap program addr ~fillers:fillers_desc ~cursor:!cursor ~limit:target;
      addr.(p) <- target;
      cursor := target + Program.size program p;
      last_placed := p;
      place_populars ()
  in
  place_populars ();
  (* Append every remaining procedure, in source order. *)
  Array.iter
    (fun p ->
      if addr.(p) < 0 then begin
        let a = round_up !cursor 4 in
        addr.(p) <- a;
        cursor := a + Program.size program p
      end)
    filler;
  (* Sanity: all procedures placed. *)
  Array.iteri
    (fun p a ->
      if a < 0 then
        invalid_arg
          (Printf.sprintf "Linearize: procedure %d missing from placed/filler" p))
    addr;
  Layout.of_addresses program addr
