module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Trace = Trg_trace.Trace
module Event = Trg_trace.Event

type proc_stats = {
  p_accesses : int;
  p_misses : int;
  p_conflicts : int;
  p_evictions_caused : int;
}

type t = {
  result : Sim.result;
  compulsory : int;
  capacity : int;
  conflict : int;
  distinct_lines : int;
  per_proc : proc_stats array;
  set_misses : int array;
  set_lines : int array;
  timeline : int array;
  interval_events : int;
  conflict_pairs : (int * int * int) array;
}

(* Attribution runs are tallied in their own namespace so the sim/*
   scoreboard counters keep meaning "the fast path ran this much". *)
let m_simulations = Trg_obs.Metrics.counter "attrib/simulations"
let m_accesses = Trg_obs.Metrics.counter "attrib/accesses"
let m_misses = Trg_obs.Metrics.counter "attrib/misses"
let m_compulsory = Trg_obs.Metrics.counter "attrib/compulsory"
let m_capacity = Trg_obs.Metrics.counter "attrib/capacity"
let m_conflict = Trg_obs.Metrics.counter "attrib/conflict"

(* Traces can come from files, so events are untrusted: a run extending
   past its procedure's end would produce line addresses beyond the layout
   span that [simulate]'s tables are sized by.  Checked up front so bad
   input yields one precise exception instead of a mid-simulation failure. *)
let validate_trace program trace =
  let n_procs = Program.n_procs program in
  for ei = 0 to Trace.length trace - 1 do
    let w = Trace.packed trace ei in
    let proc = Event.packed_proc w and offset = Event.packed_offset w in
    let len = Event.packed_len w in
    if proc < 0 || proc >= n_procs then
      invalid_arg
        (Printf.sprintf
           "Attrib.simulate: event %d references procedure %d, but the \
            program has %d"
           ei proc n_procs);
    let size = Program.size program proc in
    if offset + len > size then
      invalid_arg
        (Printf.sprintf
           "Attrib.simulate: event %d runs over bytes [%d, %d) of %s, \
            which is only %d bytes"
           ei offset (offset + len) (Program.name program proc) size)
  done

let simulate ?(intervals = 60) ?(policy = Policy.Lru) program layout
    (config : Config.t) trace =
  if intervals <= 0 then invalid_arg "Attrib.simulate: intervals must be positive";
  Policy.validate policy ~assoc:config.Config.assoc;
  validate_trace program trace;
  let n_procs = Program.n_procs program in
  let addr = Array.init n_procs (Layout.address layout) in
  let n_sets = Config.n_sets config in
  let assoc = config.assoc in
  let line_size = config.line_size in
  let capacity = Config.n_lines config in
  (* Line-id space: every reachable line address.  [validate_trace]
     guarantees events stay inside their procedure, so the layout span
     bounds the largest address. *)
  let n_line_ids = (Layout.span layout / line_size) + 2 in
  let probe = Policy.Probe.create policy ~n_sets ~assoc in
  (* The equal-capacity fully-associative LRU shadow: would a cache free
     of placement constraints still hold the line?  That divides capacity
     from conflict misses. *)
  let shadow = Policy.Full_lru.create ~capacity ~n_ids:n_line_ids in
  let seen = Bytes.make n_line_ids '\000' in
  (* last_evictor.(la): the procedure whose fill most recently displaced
     line [la] from the real cache; the "evicting procedure" of any
     conflict miss [la] suffers later. *)
  let last_evictor = Array.make n_line_ids (-1) in
  let accesses = ref 0 and misses = ref 0 and evictions = ref 0 in
  let compulsory = ref 0 and capacity_m = ref 0 and conflict = ref 0 in
  let pa = Array.make n_procs 0 in
  let pm = Array.make n_procs 0 in
  let pc = Array.make n_procs 0 in
  let pe = Array.make n_procs 0 in
  let set_misses = Array.make n_sets 0 in
  let events = Trace.length trace in
  let interval_events = max 1 ((events + intervals - 1) / intervals) in
  let timeline = Array.make (max 1 ((events + interval_events - 1) / interval_events)) 0 in
  (* (evictor, victim) -> conflict count, packed as evictor * n + victim. *)
  let matrix : (int, int ref) Hashtbl.t = Hashtbl.create 256 in
  (* Packed words, decoded field by field: no record per event. *)
  for ei = 0 to events - 1 do
    let w = Trace.packed trace ei in
    let p = Event.packed_proc w in
    let base = addr.(p) + Event.packed_offset w in
    let first = base / line_size and last = (base + Event.packed_len w - 1) / line_size in
    for la = first to last do
      incr accesses;
      pa.(p) <- pa.(p) + 1;
      let fresh = Bytes.get seen la = '\000' in
      if fresh then Bytes.set seen la '\001';
      (* The shadow is probed on every access so its recency order
         tracks the full reference stream, not just real-cache misses. *)
      let shadow_hit = Policy.Full_lru.access shadow la in
      let set = la mod n_sets in
      let code = Policy.Probe.access probe la in
      if code <> -2 then begin
        incr misses;
        pm.(p) <- pm.(p) + 1;
        set_misses.(set) <- set_misses.(set) + 1;
        timeline.(ei / interval_events) <- timeline.(ei / interval_events) + 1;
        (if fresh then incr compulsory
         else if not shadow_hit then incr capacity_m
         else begin
           incr conflict;
           pc.(p) <- pc.(p) + 1;
           let evictor = last_evictor.(la) in
           if evictor >= 0 then begin
             let key = (evictor * n_procs) + p in
             match Hashtbl.find_opt matrix key with
             | Some r -> incr r
             | None -> Hashtbl.add matrix key (ref 1)
           end
         end);
        let victim_la = code in
        if victim_la >= 0 then begin
          incr evictions;
          pe.(p) <- pe.(p) + 1;
          last_evictor.(victim_la) <- p
        end
      end
    done
  done;
  let distinct = ref 0 in
  let set_lines = Array.make n_sets 0 in
  for la = 0 to n_line_ids - 1 do
    if Bytes.get seen la <> '\000' then begin
      incr distinct;
      let set = la mod n_sets in
      set_lines.(set) <- set_lines.(set) + 1
    end
  done;
  let conflict_pairs =
    Hashtbl.fold
      (fun key count acc -> (key / n_procs, key mod n_procs, !count) :: acc)
      matrix []
    |> List.sort (fun (e1, v1, c1) (e2, v2, c2) ->
           match compare c2 c1 with 0 -> compare (e1, v1) (e2, v2) | o -> o)
    |> Array.of_list
  in
  Trg_obs.Metrics.incr m_simulations;
  Trg_obs.Metrics.add m_accesses !accesses;
  Trg_obs.Metrics.add m_misses !misses;
  Trg_obs.Metrics.add m_compulsory !compulsory;
  Trg_obs.Metrics.add m_capacity !capacity_m;
  Trg_obs.Metrics.add m_conflict !conflict;
  {
    result =
      {
        Sim.accesses = !accesses;
        misses = !misses;
        evictions = !evictions;
        events;
      };
    compulsory = !compulsory;
    capacity = !capacity_m;
    conflict = !conflict;
    distinct_lines = !distinct;
    per_proc =
      Array.init n_procs (fun p ->
          {
            p_accesses = pa.(p);
            p_misses = pm.(p);
            p_conflicts = pc.(p);
            p_evictions_caused = pe.(p);
          });
    set_misses;
    set_lines;
    timeline;
    interval_events;
    conflict_pairs;
  }

let conflict_row_sums t =
  let sums = Array.make (Array.length t.per_proc) 0 in
  Array.iter (fun (_, v, c) -> sums.(v) <- sums.(v) + c) t.conflict_pairs;
  sums
