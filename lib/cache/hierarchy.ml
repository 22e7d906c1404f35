module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Trace = Trg_trace.Trace
module Event = Trg_trace.Event

type level = { config : Config.t; policy : Policy.kind; hit_cycles : int }
type t = { levels : level list; memory_cycles : int }

type level_result = {
  level : level;
  accesses : int;
  misses : int;
  evictions : int;
  compulsory : int;
  capacity : int;
  conflict : int;
}

type result = {
  levels : level_result array;
  cycles : int;
  amat : float;
  events : int;
}

let m_simulations = Trg_obs.Metrics.counter "hier/simulations"
let m_cycles = Trg_obs.Metrics.counter "hier/cycles"

(* Per-level counters for the shipped depth (presets stop at L3); deeper
   custom hierarchies still simulate, they just share the last counter pair. *)
let max_counted_levels = 3

let m_level_accesses =
  Array.init max_counted_levels (fun i ->
      Trg_obs.Metrics.counter (Printf.sprintf "hier/l%d/accesses" (i + 1)))

let m_level_misses =
  Array.init max_counted_levels (fun i ->
      Trg_obs.Metrics.counter (Printf.sprintf "hier/l%d/misses" (i + 1)))

let level_label l =
  let size = l.config.Config.size in
  let size_str =
    if size mod (1024 * 1024) = 0 then Printf.sprintf "%dMB" (size / (1024 * 1024))
    else if size mod 1024 = 0 then Printf.sprintf "%dKB" (size / 1024)
    else Printf.sprintf "%dB" size
  in
  Printf.sprintf "%s/%dB-line/%d-way %s, %d cyc" size_str
    l.config.Config.line_size l.config.Config.assoc
    (Policy.to_string l.policy) l.hit_cycles

let make ~levels ~memory_cycles =
  if levels = [] then invalid_arg "Hierarchy.make: at least one level required";
  if memory_cycles <= 0 then
    invalid_arg "Hierarchy.make: memory_cycles must be positive";
  List.iteri
    (fun i l ->
      if l.hit_cycles <= 0 then
        invalid_arg
          (Printf.sprintf "Hierarchy.make: L%d hit_cycles must be positive" (i + 1));
      Policy.validate l.policy ~assoc:l.config.Config.assoc)
    levels;
  let rec check_lines i = function
    | a :: (b :: _ as rest) ->
        if b.config.Config.line_size mod a.config.Config.line_size <> 0 then
          invalid_arg
            (Printf.sprintf
               "Hierarchy.make: L%d line size (%d) must be a multiple of L%d's \
                (%d)"
               (i + 2) b.config.Config.line_size (i + 1) a.config.Config.line_size);
        check_lines (i + 1) rest
    | _ -> ()
  in
  check_lines 0 levels;
  { levels; memory_cycles }

(* One level's machinery: the policy-driven real cache, plus the same
   fully-associative LRU shadow divider Attrib uses, applied to the
   reference stream this level actually sees (L1's stream for L1, L1's
   misses for L2, ...).  Line granularity is the level's own line size,
   so addresses are divided down from bytes independently per level. *)
type level_state = {
  lvl : level;
  probe : Policy.Probe.t;
  shadow : Policy.Full_lru.t;
  seen : Bytes.t;
  line_size : int;
  mutable s_accesses : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_compulsory : int;
  mutable s_capacity : int;
  mutable s_conflict : int;
}

let local_miss_rate (r : level_result) =
  if r.accesses = 0 then 0.0 else float_of_int r.misses /. float_of_int r.accesses

let simulate program layout (t : t) trace =
  let n_procs = Program.n_procs program in
  let addr = Array.init n_procs (Layout.address layout) in
  let span = Layout.span layout in
  let states =
    List.map
      (fun (lvl : level) ->
        let cfg = lvl.config in
        let n_line_ids = (span / cfg.Config.line_size) + 2 in
        {
          lvl;
          probe =
            Policy.Probe.create lvl.policy ~n_sets:(Config.n_sets cfg)
              ~assoc:cfg.Config.assoc;
          shadow =
            Policy.Full_lru.create ~capacity:(Config.n_lines cfg)
              ~n_ids:n_line_ids;
          seen = Bytes.make n_line_ids '\000';
          line_size = cfg.Config.line_size;
          s_accesses = 0;
          s_misses = 0;
          s_evictions = 0;
          s_compulsory = 0;
          s_capacity = 0;
          s_conflict = 0;
        })
      t.levels
  in
  (* Probe one level at its own granularity; record the access, classify a
     miss with the level's shadow, and report whether the next level must
     be consulted. *)
  let access_level st byte_addr =
    let la = byte_addr / st.line_size in
    st.s_accesses <- st.s_accesses + 1;
    let fresh = Bytes.get st.seen la = '\000' in
    if fresh then Bytes.set st.seen la '\001';
    let shadow_hit = Policy.Full_lru.access st.shadow la in
    let code = Policy.Probe.access st.probe la in
    if code = -2 then false
    else begin
      st.s_misses <- st.s_misses + 1;
      if fresh then st.s_compulsory <- st.s_compulsory + 1
      else if not shadow_hit then st.s_capacity <- st.s_capacity + 1
      else st.s_conflict <- st.s_conflict + 1;
      if code >= 0 then st.s_evictions <- st.s_evictions + 1;
      true
    end
  in
  (* The trace is walked at L1 line granularity (one reference per L1 line
     the event's byte range touches, like Sim); deeper levels see one
     reference per L1 miss, at their own line size. *)
  let l1 = List.hd states in
  let rest = List.tl states in
  let l1_line = l1.line_size in
  (* Walk deeper while each level misses. *)
  let rec deeper byte_addr = function
    | [] -> ()
    | st :: below -> if access_level st byte_addr then deeper byte_addr below
  in
  (* Packed words, decoded field by field: no record per event. *)
  for i = 0 to Trace.length trace - 1 do
    let w = Trace.packed trace i in
    let base = addr.(Event.packed_proc w) + Event.packed_offset w in
    let first = base / l1_line and last = (base + Event.packed_len w - 1) / l1_line in
    for la1 = first to last do
      let byte_addr = la1 * l1_line in
      if access_level l1 byte_addr then deeper byte_addr rest
    done
  done;
  let n_levels = List.length states in
  let last_misses = (List.nth states (n_levels - 1)).s_misses in
  let cycles =
    List.fold_left
      (fun acc st -> acc + (st.s_accesses * st.lvl.hit_cycles))
      (last_misses * t.memory_cycles)
      states
  in
  let l1_accesses = l1.s_accesses in
  let amat =
    if l1_accesses = 0 then 0.0
    else float_of_int cycles /. float_of_int l1_accesses
  in
  Trg_obs.Metrics.incr m_simulations;
  Trg_obs.Metrics.add m_cycles cycles;
  List.iteri
    (fun i st ->
      let slot = min i (max_counted_levels - 1) in
      Trg_obs.Metrics.add m_level_accesses.(slot) st.s_accesses;
      Trg_obs.Metrics.add m_level_misses.(slot) st.s_misses)
    states;
  {
    levels =
      Array.of_list
        (List.map
           (fun st ->
             {
               level = st.lvl;
               accesses = st.s_accesses;
               misses = st.s_misses;
               evictions = st.s_evictions;
               compulsory = st.s_compulsory;
               capacity = st.s_capacity;
               conflict = st.s_conflict;
             })
           states);
    cycles;
    amat;
    events = Trace.length trace;
  }
