module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Trace = Trg_trace.Trace
module Event = Trg_trace.Event

type result = { accesses : int; misses : int; evictions : int; events : int }

let miss_rate r = if r.accesses = 0 then 0. else float_of_int r.misses /. float_of_int r.accesses

(* Per-run telemetry; flushed from per-run totals, never from the probe
   loops themselves. *)
let m_simulations = Trg_obs.Metrics.counter "sim/simulations"
let m_accesses = Trg_obs.Metrics.counter "sim/accesses"
let m_misses = Trg_obs.Metrics.counter "sim/misses"
let m_evictions = Trg_obs.Metrics.counter "sim/evictions"

let record r =
  Trg_obs.Metrics.incr m_simulations;
  Trg_obs.Metrics.add m_accesses r.accesses;
  Trg_obs.Metrics.add m_misses r.misses;
  Trg_obs.Metrics.add m_evictions r.evictions;
  r

(* L2 traffic is namespaced apart from the L1 scoreboard so sim/accesses
   keeps meaning "L1 probes" whether or not a hierarchy is simulated. *)
let m_l2_accesses = Trg_obs.Metrics.counter "sim/l2/accesses"
let m_l2_misses = Trg_obs.Metrics.counter "sim/l2/misses"
let m_l2_evictions = Trg_obs.Metrics.counter "sim/l2/evictions"

let record_l2 r =
  Trg_obs.Metrics.add m_l2_accesses r.accesses;
  Trg_obs.Metrics.add m_l2_misses r.misses;
  Trg_obs.Metrics.add m_l2_evictions r.evictions;
  r

(* The three probe loops below stream packed words ({!Trace.packed}) and
   decode only the fields they need with the [Event.packed_*]
   accessors, so they allocate nothing per event. *)

(* [Some k] when [n = 2^k]. *)
let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then None
  else begin
    let k = ref 0 in
    while 1 lsl !k < n do
      incr k
    done;
    Some !k
  end

(* Direct-mapped: one tag per line, tag = memory line address.  Addresses
   are non-negative, so when the line size and the line count are both
   powers of two the line address is a shift and the index a mask, and
   an event's accesses are counted at once.  Other geometries (a 3-line
   toy cache, a 6 KB cache) keep the dividing loop. *)
let simulate_direct addr (config : Config.t) trace =
  let n_lines = Config.n_lines config in
  let line_size = config.line_size in
  let tags = Array.make n_lines (-1) in
  let accesses = ref 0 and misses = ref 0 and evictions = ref 0 in
  let n = Trace.length trace in
  (match (log2_exact line_size, log2_exact n_lines) with
  | Some shift, Some _ ->
    let mask = n_lines - 1 in
    for i = 0 to n - 1 do
      let w = Trace.packed trace i in
      let base = addr.(Event.packed_proc w) + Event.packed_offset w in
      let first = base lsr shift
      and last = (base + Event.packed_len w - 1) lsr shift in
      accesses := !accesses + (last - first + 1);
      for la = first to last do
        let idx = la land mask in
        if tags.(idx) <> la then begin
          incr misses;
          if tags.(idx) >= 0 then incr evictions;
          tags.(idx) <- la
        end
      done
    done
  | _ ->
    for i = 0 to n - 1 do
      let w = Trace.packed trace i in
      let base = addr.(Event.packed_proc w) + Event.packed_offset w in
      let first = base / line_size
      and last = (base + Event.packed_len w - 1) / line_size in
      for la = first to last do
        incr accesses;
        let idx = la mod n_lines in
        if tags.(idx) <> la then begin
          incr misses;
          if tags.(idx) >= 0 then incr evictions;
          tags.(idx) <- la
        end
      done
    done);
  { accesses = !accesses; misses = !misses; evictions = !evictions; events = n }

(* Set-associative with true LRU: each set is a slice of [tags] kept in
   most-recently-used-first order. *)
let simulate_assoc addr (config : Config.t) trace =
  let n_sets = Config.n_sets config in
  let assoc = config.assoc in
  let line_size = config.line_size in
  let tags = Array.make (n_sets * assoc) (-1) in
  let accesses = ref 0 and misses = ref 0 and evictions = ref 0 in
  let n = Trace.length trace in
  for i = 0 to n - 1 do
    let word = Trace.packed trace i in
    let base = addr.(Event.packed_proc word) + Event.packed_offset word in
    let first = base / line_size
    and last = (base + Event.packed_len word - 1) / line_size in
    for la = first to last do
      incr accesses;
      let set = la mod n_sets in
      let start = set * assoc in
      (* Find the way holding [la], if any. *)
      let way = ref (-1) in
      (try
         for w = 0 to assoc - 1 do
           if tags.(start + w) = la then begin
             way := w;
             raise Exit
           end
         done
       with Exit -> ());
      let hit_way =
        if !way >= 0 then !way
        else begin
          incr misses;
          (* victim: least recently used, at the back *)
          if tags.(start + assoc - 1) >= 0 then incr evictions;
          assoc - 1
        end
      in
      (* Move to front. *)
      for w = hit_way downto 1 do
        tags.(start + w) <- tags.(start + w - 1)
      done;
      tags.(start) <- la
    done
  done;
  { accesses = !accesses; misses = !misses; evictions = !evictions; events = n }

(* Generic policy engine: any {!Policy.kind} through {!Policy.Probe}.
   The direct-mapped and true-LRU configurations never come here — they
   keep the specialised loops above, bit-identical to the pre-policy
   simulator. *)
let simulate_policy policy (config : Config.t) addr trace =
  let probe =
    Policy.Probe.create policy ~n_sets:(Config.n_sets config) ~assoc:config.assoc
  in
  let line_size = config.line_size in
  let accesses = ref 0 and misses = ref 0 and evictions = ref 0 in
  let n = Trace.length trace in
  for i = 0 to n - 1 do
    let w = Trace.packed trace i in
    let base = addr.(Event.packed_proc w) + Event.packed_offset w in
    let first = base / line_size
    and last = (base + Event.packed_len w - 1) / line_size in
    for la = first to last do
      incr accesses;
      let code = Policy.Probe.access probe la in
      if not (Policy.Probe.hit code) then begin
        incr misses;
        if code >= 0 then incr evictions
      end
    done
  done;
  { accesses = !accesses; misses = !misses; evictions = !evictions; events = n }

let simulate ?(policy = Policy.Lru) program layout config trace =
  Policy.validate policy ~assoc:config.Config.assoc;
  let n = Program.n_procs program in
  let addr = Array.init n (Layout.address layout) in
  record
    (if config.Config.assoc = 1 then simulate_direct addr config trace
     else
       match policy with
       | Policy.Lru -> simulate_assoc addr config trace
       | p -> simulate_policy p config addr trace)

let simulate_flat = simulate

(* Tree-PLRU, now one instance of the policy engine (same direction-bit
   tree it always simulated, shared with {!Policy.Probe}). *)
let simulate_plru program layout (config : Config.t) trace =
  if config.Config.assoc land (config.Config.assoc - 1) <> 0 then
    invalid_arg "Sim.simulate_plru: associativity must be a power of two";
  simulate ~policy:Policy.Plru program layout config trace

type hierarchy_result = { l1 : result; l2 : result; amat : float }

(* A reusable single-cache probe function over line addresses; displaced
   resident lines are tallied in [evicted]. *)
let make_probe (config : Config.t) ~evicted =
  let n_sets = Config.n_sets config in
  let assoc = config.assoc in
  let tags = Array.make (n_sets * assoc) (-1) in
  fun la ->
    let set = la mod n_sets in
    let start = set * assoc in
    let way = ref (-1) in
    (try
       for w = 0 to assoc - 1 do
         if tags.(start + w) = la then begin
           way := w;
           raise Exit
         end
       done
     with Exit -> ());
    let hit = !way >= 0 in
    let from_way = if hit then !way else assoc - 1 in
    if (not hit) && tags.(start + assoc - 1) >= 0 then incr evicted;
    for w = from_way downto 1 do
      tags.(start + w) <- tags.(start + w - 1)
    done;
    tags.(start) <- la;
    hit

let simulate_hierarchy program layout ~(l1 : Config.t) ~(l2 : Config.t) trace =
  if l2.line_size mod l1.line_size <> 0 then
    invalid_arg "Sim.simulate_hierarchy: L2 line size must be a multiple of L1's";
  let n = Program.n_procs program in
  let addr = Array.init n (Layout.address layout) in
  let e1 = ref 0 and e2 = ref 0 in
  let probe1 = make_probe l1 ~evicted:e1 and probe2 = make_probe l2 ~evicted:e2 in
  let ratio = l2.line_size / l1.line_size in
  let a1 = ref 0 and m1 = ref 0 and a2 = ref 0 and m2 = ref 0 in
  Trace.iter
    (fun (e : Event.t) ->
      let base = addr.(e.proc) + e.offset in
      let first = base / l1.line_size and last = (base + e.len - 1) / l1.line_size in
      for la = first to last do
        incr a1;
        if not (probe1 la) then begin
          incr m1;
          incr a2;
          if not (probe2 (la / ratio)) then incr m2
        end
      done)
    trace;
  let l1r =
    record
      { accesses = !a1; misses = !m1; evictions = !e1; events = Trace.length trace }
  in
  let l2r =
    record_l2
      { accesses = !a2; misses = !m2; evictions = !e2; events = Trace.length trace }
  in
  let amat =
    if !a1 = 0 then 0.
    else
      (float_of_int !a1 +. (10. *. float_of_int !m1) +. (90. *. float_of_int !m2))
      /. float_of_int !a1
  in
  { l1 = l1r; l2 = l2r; amat }

type page_result = { page_accesses : int; page_faults : int; pages_touched : int }

(* Exact LRU over pages: a doubly-linked recency list indexed by page id. *)
let paging program layout ~page_size ~frames trace =
  if page_size <= 0 || frames <= 0 then
    invalid_arg "Sim.paging: page_size and frames must be positive";
  let n = Program.n_procs program in
  let addr = Array.init n (Layout.address layout) in
  let n_pages = (Layout.span layout / page_size) + 2 in
  (* prev/next chain over resident pages; -1 = nil. *)
  let prev = Array.make n_pages (-1) and next = Array.make n_pages (-1) in
  let resident = Array.make n_pages false in
  let head = ref (-1) (* most recent *) and tail = ref (-1) (* least recent *) in
  let count = ref 0 in
  let unlink p =
    (match prev.(p) with -1 -> head := next.(p) | q -> next.(q) <- next.(p));
    (match next.(p) with -1 -> tail := prev.(p) | q -> prev.(q) <- prev.(p));
    prev.(p) <- -1;
    next.(p) <- -1
  in
  let push_front p =
    prev.(p) <- -1;
    next.(p) <- !head;
    (match !head with -1 -> tail := p | h -> prev.(h) <- p);
    head := p
  in
  let accesses = ref 0 and faults = ref 0 in
  let touched = Hashtbl.create 256 in
  Trace.iter
    (fun (e : Event.t) ->
      let base = addr.(e.proc) + e.offset in
      let first = base / page_size and last = (base + e.len - 1) / page_size in
      for p = first to last do
        incr accesses;
        if not (Hashtbl.mem touched p) then Hashtbl.add touched p ();
        if resident.(p) then begin
          if !head <> p then begin
            unlink p;
            push_front p
          end
        end
        else begin
          incr faults;
          if !count = frames then begin
            let victim = !tail in
            unlink victim;
            resident.(victim) <- false
          end
          else incr count;
          resident.(p) <- true;
          push_front p
        end
      done)
    trace;
  Trg_obs.Metrics.add (Trg_obs.Metrics.counter "sim/page/accesses") !accesses;
  Trg_obs.Metrics.add (Trg_obs.Metrics.counter "sim/page/faults") !faults;
  {
    page_accesses = !accesses;
    page_faults = !faults;
    pages_touched = Hashtbl.length touched;
  }

let distinct_lines program layout (config : Config.t) trace =
  let n = Program.n_procs program in
  let addr = Array.init n (Layout.address layout) in
  let line_size = config.line_size in
  let seen = Hashtbl.create 4096 in
  Trace.iter
    (fun (e : Event.t) ->
      let base = addr.(e.proc) + e.offset in
      let first = base / line_size and last = (base + e.len - 1) / line_size in
      for la = first to last do
        if not (Hashtbl.mem seen la) then Hashtbl.add seen la ()
      done)
    trace;
  Hashtbl.length seen
