type t = {
  n_events : int;
  n_transitions : int;
  n_procs_referenced : int;
  enter_counts : int array;
  ref_counts : int array;
  bytes_executed : int;
}

let compute ~n_procs trace =
  let enter_counts = Array.make n_procs 0 in
  let ref_counts = Array.make n_procs 0 in
  let n_transitions = ref 0 in
  let bytes = ref 0 in
  for i = 0 to Trace.length trace - 1 do
    let w = Trace.packed trace i in
    let proc = Event.packed_proc w in
    if proc >= n_procs then
      invalid_arg (Printf.sprintf "Tstats.compute: proc %d out of range" proc);
    ref_counts.(proc) <- ref_counts.(proc) + 1;
    bytes := !bytes + Event.packed_len w;
    match Event.packed_kind w with
    | Event.Enter ->
      enter_counts.(proc) <- enter_counts.(proc) + 1;
      incr n_transitions
    | Event.Resume -> incr n_transitions
    | Event.Run -> ()
  done;
  let n_procs_referenced =
    Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 ref_counts
  in
  {
    n_events = Trace.length trace;
    n_transitions = !n_transitions;
    n_procs_referenced;
    enter_counts;
    ref_counts;
    bytes_executed = !bytes;
  }

let dynamic_coverage t p =
  if t.n_events = 0 then 0.
  else float_of_int t.ref_counts.(p) /. float_of_int t.n_events

let pp ppf t =
  Format.fprintf ppf
    "events=%d transitions=%d procs=%d bytes=%d" t.n_events t.n_transitions
    t.n_procs_referenced t.bytes_executed
