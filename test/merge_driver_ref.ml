(* Reference model of [Trg_place.Merge_driver]: the driver the library
   used before its state moved onto arrays, kept verbatim as the tie-order
   wall's reference.  Its state is polymorphic [Hashtbl]s keyed by
   original node id (groups, union-find, per-group adjacency) and its
   heap is an array of records; the re-pointed edges of a merge are
   pushed in the iteration order of the absorbed group's adjacency table,
   which is the order the production driver must keep.  It bumps the
   same [merge/*] counters and records the same journal.  Tests only. *)

(* The record heap the reference was written against. *)
module Heap = struct
  type 'a entry = { prio : float; seq : int; payload : 'a }

  type 'a t = {
    mutable data : 'a entry array;
    mutable size : int;
    mutable next_seq : int;
  }

  let create () = { data = [||]; size = 0; next_seq = 0 }

  let precedes a b = a.prio > b.prio || (a.prio = b.prio && a.seq < b.seq)

  let ensure_capacity h =
    if h.size = Array.length h.data then begin
      let cap = max 16 (2 * Array.length h.data) in
      let data = Array.make cap h.data.(0) in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end

  let push h prio payload =
    let entry = { prio; seq = h.next_seq; payload } in
    h.next_seq <- h.next_seq + 1;
    if Array.length h.data = 0 then h.data <- Array.make 16 entry;
    ensure_capacity h;
    h.data.(h.size) <- entry;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      precedes h.data.(!i) h.data.(parent)
    do
      let parent = (!i - 1) / 2 in
      let tmp = h.data.(!i) in
      h.data.(!i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      i := parent
    done

  let iter_entries h f =
    for i = 0 to h.size - 1 do
      let e = h.data.(i) in
      f e.prio e.seq e.payload
    done

  let pop_max h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let best = ref !i in
          if l < h.size && precedes h.data.(l) h.data.(!best) then best := l;
          if r < h.size && precedes h.data.(r) h.data.(!best) then best := r;
          if !best = !i then continue := false
          else begin
            let tmp = h.data.(!i) in
            h.data.(!i) <- h.data.(!best);
            h.data.(!best) <- tmp;
            i := !best
          end
        done
      end;
      Some (top.prio, top.payload)
    end
end

module Graph = Trg_profile.Graph
module Journal = Trg_obs.Journal

type 'node group = {
  repr : int; (* original node id acting as group identity *)
  mutable payload : 'node;
  mutable count : int; (* original nodes absorbed *)
  adj : (int, float) Hashtbl.t; (* neighbor repr -> combined weight *)
}

(* Telemetry: heap churn of the greedy merge loop, flushed once per run. *)
let m_runs = Trg_obs.Metrics.counter "merge/runs"
let m_pops = Trg_obs.Metrics.counter "merge/heap_pops"
let m_stale = Trg_obs.Metrics.counter "merge/stale_pops"
let m_merges = Trg_obs.Metrics.counter "merge/merges"

(* Lazy, like the prof/* histograms: replays only happen on journal
   verification paths, and an unjournalled run's manifest must not grow a
   zero-valued merge/replays counter. *)
let m_replays = lazy (Trg_obs.Metrics.counter "merge/replays")

(* Hot-path profile: per-merge wall time.  Lazy so the [prof/*] histogram
   only exists in the registry (and hence in manifests) when [--profile]
   actually observed something. *)
let h_merge_us =
  lazy
    (Trg_obs.Metrics.histogram ~limits:Trg_obs.Prof.us_limits
       "prof/merge/merge_us")

(* The working state shared by the greedy run and the forced-choice
   replay: live groups keyed by representative, plus the union-find that
   maps original node ids to their current representative. *)
type 'node state = {
  groups : (int, 'node group) Hashtbl.t;
  parent : (int, int) Hashtbl.t;
}

let rec find st id =
  let p = Hashtbl.find st.parent id in
  if p = id then id
  else begin
    let root = find st p in
    Hashtbl.replace st.parent id root;
    root
  end

let init_state ~graph ~init ~on_edge =
  let st = { groups = Hashtbl.create 64; parent = Hashtbl.create 64 } in
  List.iter
    (fun id ->
      Hashtbl.replace st.parent id id;
      Hashtbl.replace st.groups id
        { repr = id; payload = init id; count = 1; adj = Hashtbl.create 8 })
    (Graph.nodes graph);
  Graph.iter_edges
    (fun u v w ->
      let gu = Hashtbl.find st.groups u and gv = Hashtbl.find st.groups v in
      Hashtbl.replace gu.adj v w;
      Hashtbl.replace gv.adj u w;
      on_edge u v w)
    graph;
  st

(* Absorb [gv] into [gu] (or vice versa: the larger group stays fixed and
   becomes the merge callback's n1).  [on_combined] sees each re-pointed
   edge with its combined weight — the greedy run pushes it back on the
   heap, the replay has no heap to maintain. *)
let apply_merge st ~merge ~on_combined gu gv =
  let big, small =
    if gu.count > gv.count || (gu.count = gv.count && gu.repr < gv.repr) then
      (gu, gv)
    else (gv, gu)
  in
  big.payload <- merge big.payload small.payload;
  big.count <- big.count + small.count;
  Hashtbl.replace st.parent small.repr big.repr;
  Hashtbl.remove st.groups small.repr;
  Hashtbl.remove big.adj small.repr;
  Hashtbl.remove small.adj big.repr;
  (* Re-point the absorbed group's edges at the survivor. *)
  Hashtbl.iter
    (fun n wn ->
      let rn = find st n in
      if rn <> big.repr then begin
        let gn = Hashtbl.find st.groups rn in
        let combined =
          match Hashtbl.find_opt big.adj rn with
          | Some existing -> existing +. wn
          | None -> wn
        in
        Hashtbl.replace big.adj rn combined;
        Hashtbl.replace gn.adj big.repr combined;
        Hashtbl.remove gn.adj small.repr;
        on_combined big.repr rn combined
      end)
    small.adj;
  big

(* Groups in output order: decreasing size, ties by ascending repr. *)
let finalize st =
  let remaining = Hashtbl.fold (fun _ g acc -> g :: acc) st.groups [] in
  let sorted =
    List.sort
      (fun a b ->
        match compare b.count a.count with 0 -> compare a.repr b.repr | c -> c)
      remaining
  in
  List.map (fun g -> g.payload) sorted

(* Journal hook: one record per decision, taken BEFORE the merge mutates
   the state so sizes and adjacency are the ones the decision saw (and so
   the algorithm's merge callback can annotate this record with its offset
   choice).  The runner-up is the entry the heap would surface next if the
   winner did not exist: the heaviest non-stale entry over a different
   group pair, ties broken by insertion ordinal exactly like [pop_max].
   The scan is non-destructive ([Heap.iter_entries]) — pop/re-push would
   renumber entries and perturb later tie-breaking. *)
let record_decision st heap ~ru ~rv ~w ~gu ~gv =
  let best = ref None in
  Heap.iter_entries heap (fun prio seq (u, v) ->
      let u' = find st u and v' = find st v in
      if
        u' <> v'
        && (not ((u' = ru && v' = rv) || (u' = rv && v' = ru)))
        &&
        match Hashtbl.find_opt (Hashtbl.find st.groups u').adj v' with
        | Some current -> current = prio
        | None -> false
      then
        match !best with
        | Some (bp, bs, _, _) when bp > prio || (bp = prio && bs < seq) -> ()
        | _ -> best := Some (prio, seq, u', v'));
  let runner_up =
    Option.map
      (fun (prio, _, u', v') ->
        { Journal.r_u = min u' v'; r_v = max u' v'; r_weight = prio })
      !best
  in
  let size_u, size_v = if ru < rv then (gu.count, gv.count) else (gv.count, gu.count) in
  Journal.record ~u:(min ru rv) ~v:(max ru rv) ~weight:w ~size_u ~size_v
    ?runner_up ()

let run ~graph ~init ~merge =
  let pops = ref 0 and stale_pops = ref 0 and merges = ref 0 in
  let heap = Heap.create () in
  let st = init_state ~graph ~init ~on_edge:(fun u v w -> Heap.push heap w (u, v)) in
  let rec loop () =
    match Heap.pop_max heap with
    | None -> ()
    | Some (w, (u, v)) ->
      incr pops;
      let ru = find st u and rv = find st v in
      let stale =
        ru = rv
        ||
        let gu = Hashtbl.find st.groups ru in
        match Hashtbl.find_opt gu.adj rv with
        | Some current -> current <> w
        | None -> true
      in
      if stale then incr stale_pops
      else begin
        incr merges;
        let gu = Hashtbl.find st.groups ru and gv = Hashtbl.find st.groups rv in
        if Journal.recording () then record_decision st heap ~ru ~rv ~w ~gu ~gv;
        let t0 =
          if Trg_obs.Prof.enabled () then Trg_util.Clock.monotonic () else 0.
        in
        ignore
          (apply_merge st ~merge
             ~on_combined:(fun a b combined -> Heap.push heap combined (a, b))
             gu gv);
        if Trg_obs.Prof.enabled () then
          Trg_obs.Metrics.observe (Lazy.force h_merge_us)
            (1e6 *. (Trg_util.Clock.monotonic () -. t0))
      end;
      loop ()
  in
  loop ();
  Trg_obs.Metrics.incr m_runs;
  Trg_obs.Metrics.add m_pops !pops;
  Trg_obs.Metrics.add m_stale !stale_pops;
  Trg_obs.Metrics.add m_merges !merges;
  finalize st

let replay ~graph ~init ~merge ~decisions =
  Trg_obs.Metrics.incr (Lazy.force m_replays);
  let st = init_state ~graph ~init ~on_edge:(fun _ _ _ -> ()) in
  let fail step fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "replay: step %d: %s" step msg))
      fmt
  in
  Array.iter
    (fun (d : Journal.decision) ->
      let step = d.Journal.step in
      let group_of what id =
        match Hashtbl.find_opt st.groups id with
        | Some g -> g
        | None -> fail step "%s %d is not a live group" what id
      in
      let gu = group_of "group" d.Journal.d_u
      and gv = group_of "group" d.Journal.d_v in
      (match Hashtbl.find_opt gu.adj d.Journal.d_v with
      | Some w when w = d.Journal.weight -> ()
      | Some w ->
        fail step "edge (%d,%d) weighs %h, journal claims %h" d.Journal.d_u
          d.Journal.d_v w d.Journal.weight
      | None ->
        fail step "no edge between groups %d and %d" d.Journal.d_u
          d.Journal.d_v);
      if gu.count <> d.Journal.size_u || gv.count <> d.Journal.size_v then
        fail step "group sizes (%d,%d) do not match journal (%d,%d)" gu.count
          gv.count d.Journal.size_u d.Journal.size_v;
      (match d.Journal.runner_up with
      | None -> ()
      | Some r ->
        let ga = group_of "runner-up group" r.Journal.r_u in
        ignore (group_of "runner-up group" r.Journal.r_v);
        (match Hashtbl.find_opt ga.adj r.Journal.r_v with
        | Some w when w = r.Journal.r_weight -> ()
        | Some w ->
          fail step "runner-up edge (%d,%d) weighs %h, journal claims %h"
            r.Journal.r_u r.Journal.r_v w r.Journal.r_weight
        | None ->
          fail step "no runner-up edge between groups %d and %d" r.Journal.r_u
            r.Journal.r_v);
        if d.Journal.weight < r.Journal.r_weight then
          fail step "journal margin is negative (%h < %h)" d.Journal.weight
            r.Journal.r_weight);
      (* Re-record the verified decision so a verification pass rebuilds a
         journal in parallel: the merge callback annotates it with the
         engine-derived offset, which the verifier then compares
         bit-exactly against the original claim. *)
      if Journal.recording () then
        Journal.record ~u:d.Journal.d_u ~v:d.Journal.d_v
          ~weight:d.Journal.weight ~size_u:d.Journal.size_u
          ~size_v:d.Journal.size_v ?runner_up:d.Journal.runner_up ();
      ignore (apply_merge st ~merge ~on_combined:(fun _ _ _ -> ()) gu gv))
    decisions;
  (* A complete greedy run drains every mergeable edge, so a journal that
     leaves adjacency behind was cut short (or belongs to another graph). *)
  Hashtbl.iter
    (fun repr g ->
      if Hashtbl.length g.adj <> 0 then
        failwith
          (Printf.sprintf
             "replay: journal ended after %d steps but group %d still has %d \
              mergeable edge(s)"
             (Array.length decisions) repr (Hashtbl.length g.adj)))
    st.groups;
  finalize st
