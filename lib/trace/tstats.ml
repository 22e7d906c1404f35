type t = {
  n_events : int;
  n_transitions : int;
  n_procs_referenced : int;
  enter_counts : int array;
  ref_counts : int array;
  bytes_executed : int;
}

(* A trace holds only kinds 0 (Enter), 1 (Resume) and 2 (Run):
   [Event.make] cannot build kind 3 and [Builder.add_words] rejects it.
   On those three, [(2 - k) lsr 1] is 1 for Enter only and
   [(3 - k) lsr 1] is 1 for a transition, so an event costs no branch on
   its kind.  [proc] is checked against [n_procs] and cannot be
   negative, so the count arrays are indexed unchecked. *)
let compute ~n_procs trace =
  let enter_counts = Array.make n_procs 0 in
  let ref_counts = Array.make n_procs 0 in
  let n_transitions = ref 0 in
  let bytes = ref 0 in
  for i = 0 to Trace.length trace - 1 do
    let w = Trace.unsafe_packed trace i in
    let proc = Event.packed_proc w in
    if proc >= n_procs then
      invalid_arg (Printf.sprintf "Tstats.compute: proc %d out of range" proc);
    let k = Event.packed_kind_bits w in
    Array.unsafe_set ref_counts proc (Array.unsafe_get ref_counts proc + 1);
    Array.unsafe_set enter_counts proc
      (Array.unsafe_get enter_counts proc + ((2 - k) lsr 1));
    n_transitions := !n_transitions + ((3 - k) lsr 1);
    bytes := !bytes + Event.packed_len w
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
