module Program = Trg_program.Program
module Tstats = Trg_trace.Tstats

type t = { is_popular : bool array; ranked : int array; popular_bytes : int }

let select ?(coverage = 0.99) ?(min_refs = 2) ?max_procs program (stats : Tstats.t) =
  let counts = stats.ref_counts in
  let n = Array.length counts in
  (* Most referenced first; equal counts by increasing id, which the
     radix order keeps. *)
  let ids = Trg_util.Radix.order (Array.map (fun c -> -c) counts) in
  let total = Array.fold_left ( + ) 0 counts in
  let target = coverage *. float_of_int total in
  let limit = match max_procs with Some m -> m | None -> n in
  let is_popular = Array.make n false in
  let selected = ref 0 and covered = ref 0 in
  while
    !selected < n
    && !selected < limit
    && float_of_int !covered < target
    && counts.(ids.(!selected)) >= min_refs
  do
    let p = ids.(!selected) in
    is_popular.(p) <- true;
    covered := !covered + counts.(p);
    incr selected
  done;
  let ranked = Array.sub ids 0 !selected in
  let popular_bytes =
    Array.fold_left (fun acc p -> acc + Program.size program p) 0 ranked
  in
  { is_popular; ranked; popular_bytes }

let n_popular t = Array.length t.ranked

let keep t p = t.is_popular.(p)

let unpopular t =
  let out = ref [] in
  for p = Array.length t.is_popular - 1 downto 0 do
    if not t.is_popular.(p) then out := p :: !out
  done;
  Array.of_list !out
