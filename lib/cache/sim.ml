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

(* The probe loops below stream packed words ({!Trace.packed}) and
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
   powers of two the line address is a shift and the index a mask.  At
   32-byte lines, 60-80% of the five synthetic benchmarks' test events
   touch two lines, 5-23% one and 8-29% three (their blocks are at most
   63 bytes), so the loop probes the first line, then the second when
   there is one, and runs the [for] loop only from the third; one [for]
   loop over all the lines, with the same unchecked reads, ran 3-16%
   slower on those traces (median 7%).  An event adds to [accesses] only
   the lines past its first.  Every tag index is masked below [n_lines]
   and every event index is below [Trace.length], so [tags] and the
   trace are read unchecked; the procedure's address is still a checked
   read, which raises on an event of a procedure the program lacks.
   Other geometries (a 3-line toy cache, a 6 KB cache) keep the dividing
   loop. *)
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
      let w = Trace.unsafe_packed trace i in
      let base = addr.(Event.packed_proc w) + Event.packed_offset w in
      let first = base lsr shift
      and last = (base + Event.packed_len w - 1) lsr shift in
      let idx = first land mask in
      let t = Array.unsafe_get tags idx in
      if t <> first then begin
        incr misses;
        if t >= 0 then incr evictions;
        Array.unsafe_set tags idx first
      end;
      if last > first then begin
        accesses := !accesses + (last - first);
        let second = first + 1 in
        let idx = second land mask in
        let t = Array.unsafe_get tags idx in
        if t <> second then begin
          incr misses;
          if t >= 0 then incr evictions;
          Array.unsafe_set tags idx second
        end;
        for la = first + 2 to last do
          let idx = la land mask in
          let t = Array.unsafe_get tags idx in
          if t <> la then begin
            incr misses;
            if t >= 0 then incr evictions;
            Array.unsafe_set tags idx la
          end
        done
      end
    done;
    accesses := !accesses + n
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

(* Set-associative: every policy, true LRU included, through one
   {!Policy.Probe}. *)
let simulate_probe policy (config : Config.t) addr trace =
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
     else simulate_probe policy config addr trace)

let simulate_flat = simulate

type page_result = { page_accesses : int; page_faults : int; pages_touched : int }

(* Sets bit [i] of [bits]; whether it was clear. *)
let mark bits i =
  let byte = Char.code (Bytes.get bits (i lsr 3)) and bit = 1 lsl (i land 7) in
  byte land bit = 0
  && begin
    Bytes.set bits (i lsr 3) (Char.unsafe_chr (byte lor bit));
    true
  end

(* Exact LRU over pages: the resident set is a {!Policy.Full_lru} of
   [frames] pages. *)
let paging program layout ~page_size ~frames trace =
  if page_size <= 0 || frames <= 0 then
    invalid_arg "Sim.paging: page_size and frames must be positive";
  let n = Program.n_procs program in
  let addr = Array.init n (Layout.address layout) in
  let n_pages = (Layout.span layout / page_size) + 2 in
  let resident = Policy.Full_lru.create ~capacity:frames ~n_ids:n_pages in
  let accesses = ref 0 and faults = ref 0 in
  (* One bit per page; [Full_lru.access] raises first on a page past
     [n_pages], as an event running past the layout's end can reach. *)
  let touched = Bytes.make ((n_pages + 7) / 8) '\000' and pages_touched = ref 0 in
  for i = 0 to Trace.length trace - 1 do
    let w = Trace.packed trace i in
    let base = addr.(Event.packed_proc w) + Event.packed_offset w in
    let first = base / page_size
    and last = (base + Event.packed_len w - 1) / page_size in
    for p = first to last do
      incr accesses;
      if not (Policy.Full_lru.access resident p) then incr faults;
      if mark touched p then incr pages_touched
    done
  done;
  Trg_obs.Metrics.add (Trg_obs.Metrics.counter "sim/page/accesses") !accesses;
  Trg_obs.Metrics.add (Trg_obs.Metrics.counter "sim/page/faults") !faults;
  { page_accesses = !accesses; page_faults = !faults; pages_touched = !pages_touched }
