module Program = Trg_program.Program
module Layout = Trg_program.Layout

let round_up x align = (x + align - 1) / align * align

(* The unpopular procedures by decreasing size, ties by increasing id,
   with their sizes beside them.  [next] skips the entries used so far:
   entry [i] is unused while [next.(i) = i], and [next.(n)] is [n]. *)
type fillers = { ids : int array; sizes : int array; next : int array }

let fillers program filler =
  let n_procs = Program.n_procs program in
  (* One key orders by decreasing size, then by increasing id. *)
  let order =
    Trg_util.Radix.order (Array.map (fun p -> p - (Program.size program p * n_procs)) filler)
  in
  let ids = Array.map (fun i -> filler.(i)) order in
  {
    ids;
    sizes = Array.map (Program.size program) ids;
    next = Array.init (Array.length filler + 1) Fun.id;
  }

(* The first unused entry from [i] on, compressing the path to it. *)
let next_unused f i =
  let r = ref i in
  while f.next.(!r) <> !r do
    r := f.next.(!r)
  done;
  let j = ref i in
  while !j <> !r do
    let k = f.next.(!j) in
    f.next.(!j) <- !r;
    j := k
  done;
  !r

(* The first entry of at most [room] bytes: every entry from it on fits. *)
let first_fit f room =
  let lo = ref 0 and hi = ref (Array.length f.sizes) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if f.sizes.(mid) <= room then hi := mid else lo := mid + 1
  done;
  !lo

(* Largest-fit gap filling: repeatedly place the biggest unpopular procedure
   that fits between [cursor] and [limit] (4-byte aligned), the first
   unused one in [f]'s order. *)
let fill_gap program addr f ~cursor ~limit =
  let n = Array.length f.ids in
  let cur = ref (round_up cursor 4) in
  let continue = ref true in
  while !continue do
    let room = limit - !cur in
    let i = if room <= 0 then n else next_unused f (first_fit f room) in
    if i = n then continue := false
    else begin
      let p = f.ids.(i) in
      f.next.(i) <- i + 1;
      (* A procedure listed twice, or also placed, is used already. *)
      if addr.(p) < 0 then begin
        addr.(p) <- !cur;
        cur := round_up (!cur + Program.size program p) 4
      end
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
  let fillers = fillers program filler in
  (* The unplaced popular procedures and their target sets, in the first
     [!live] entries of [pops] and [offs]; a procedure listed twice keeps
     its last target. *)
  let slot = Array.make n (-1) in
  let pops = Array.make (List.length placed) 0 in
  let offs = Array.make (List.length placed) 0 in
  let live = ref 0 in
  List.iter
    (fun (p, off) ->
      match slot.(p) with
      | -1 ->
        slot.(p) <- !live;
        pops.(!live) <- p;
        offs.(!live) <- off;
        incr live
      | i -> offs.(i) <- off)
    placed;
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
  let window = match affinity with Some _ -> affinity_window | None -> 0 in
  let score p =
    match affinity with
    | Some f when !last_placed >= 0 -> -.f !last_placed p
    | Some _ | None -> 0.
  in
  let gap_of cur_set off = (off - cur_set + n_sets) mod n_sets in
  (* The entry of [pops] with the least key (score, gap, id), compared as
     the tuples would be.  Ids are unique, so no two keys tie and the scan
     order cannot matter. *)
  let pick_next cur_set =
    let min_gap = ref max_int in
    for i = 0 to !live - 1 do
      let gap = gap_of cur_set offs.(i) in
      if gap < !min_gap then min_gap := gap
    done;
    let best = ref (-1) and best_score = ref 0. and best_gap = ref 0 in
    for i = 0 to !live - 1 do
      let gap = gap_of cur_set offs.(i) in
      if gap <= !min_gap + window then begin
        let s = score pops.(i) in
        let better =
          !best < 0
          || not
               (!best_score < s
               || (!best_score = s
                  && (!best_gap < gap || (!best_gap = gap && pops.(!best) <= pops.(i)))))
        in
        if better then begin
          best := i;
          best_score := s;
          best_gap := gap
        end
      end
    done;
    !best
  in
  let rec place_populars () =
    let cur_line = (!cursor + line_size - 1) / line_size in
    match pick_next (cur_line mod n_sets) with
    | -1 -> ()
    | i ->
      let p = pops.(i) in
      let gap = gap_of (cur_line mod n_sets) offs.(i) in
      decr live;
      pops.(i) <- pops.(!live);
      offs.(i) <- offs.(!live);
      let target = (cur_line + gap) * line_size in
      fill_gap program addr fillers ~cursor:!cursor ~limit:target;
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
