(* Reference model of [Trg_profile.Popularity.select]: the selection as
   the library wrote it before it ordered the procedures by radix and
   counted the selected ones in a counter, with a closure sort (most
   referenced first, ties by increasing id) and a [List.length] on every
   step.  Returns the selected ids in rank order.  Tests only. *)

let select ?(coverage = 0.99) ?(min_refs = 2) ?max_procs ref_counts =
  let n = Array.length ref_counts in
  let ids = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare ref_counts.(b) ref_counts.(a) with 0 -> compare a b | c -> c)
    ids;
  let total = Array.fold_left ( + ) 0 ref_counts in
  let target = coverage *. float_of_int total in
  let limit = match max_procs with Some m -> m | None -> n in
  let selected = ref [] in
  let covered = ref 0 in
  (try
     Array.iter
       (fun p ->
         if
           List.length !selected >= limit
           || float_of_int !covered >= target
           || ref_counts.(p) < min_refs
         then raise Exit;
         selected := p :: !selected;
         covered := !covered + ref_counts.(p))
       ids
   with Exit -> ());
  Array.of_list (List.rev !selected)
