module Graph = Trg_profile.Graph
module Heap = Trg_util.Heap
module Journal = Trg_obs.Journal

(* Per-group adjacency: neighbour representative (an original node id)
   -> combined weight.  [Hashtbl.hash] with [Int.equal] puts every key in
   the bucket the polymorphic [Hashtbl] would, and [replace] and
   [remove] keep the same bucket discipline, so a table built by the
   same calls iterates in the same order: the order [apply_merge]
   re-pushes edges in, which breaks ties between equal weights. *)
module Adj = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

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
   replay, over the graph's dense node numbers ({!Graph.node_index}): a
   group is named by the number of its representative, the original
   node that stays fixed through every merge into it.  A number is a
   live group's iff it is its own union-find parent. *)
type 'node state = {
  graph : Graph.t;
  parent : int array; (* union-find *)
  count : int array; (* original nodes absorbed, for a live group *)
  payload : 'node array;
  adj : float Adj.t array; (* a live group's adjacency, keyed by original id *)
}

let id st i = Graph.node_id st.graph i

let index st id = Graph.node_index st.graph id

let rec find st i =
  let p = st.parent.(i) in
  if p = i then i
  else begin
    let root = find st p in
    st.parent.(i) <- root;
    root
  end

let live st i = st.parent.(i) = i

(* Heap payloads: the two groups' numbers, packed as the graph packs an
   edge's ends (numbers are below [Graph.max_id]). *)
let[@inline] pack a b = (a lsl 24) lor b

(* [init] sees the nodes in ascending id order, and the edges enter the
   adjacency tables (and [on_edge]) in canonical [(u, v)] order. *)
let init_state ~graph ~init ~on_edge =
  let n = Graph.n_nodes graph in
  let payload =
    match Graph.nodes graph with
    | [] -> [||]
    | first :: rest ->
      let payload = Array.make n (init first) in
      List.iter (fun v -> payload.(Graph.node_index graph v) <- init v) rest;
      payload
  in
  let st =
    {
      graph;
      parent = Array.init n Fun.id;
      count = Array.make n 1;
      payload;
      adj = Array.init n (fun _ -> Adj.create 8);
    }
  in
  Graph.iter_edges
    (fun u v w ->
      let a = index st u and b = index st v in
      Adj.replace st.adj.(a) v w;
      Adj.replace st.adj.(b) u w;
      on_edge a b w)
    graph;
  st

(* Absorb [gv] into [gu] (or vice versa: the larger group stays fixed and
   becomes the merge callback's n1).  [on_combined] sees each re-pointed
   edge with its combined weight — the greedy run pushes it back on the
   heap, the replay has no heap to maintain. *)
let apply_merge st ~merge ~on_combined gu gv =
  let big, small =
    if
      st.count.(gu) > st.count.(gv)
      || (st.count.(gu) = st.count.(gv) && id st gu < id st gv)
    then (gu, gv)
    else (gv, gu)
  in
  let big_id = id st big and small_id = id st small in
  st.payload.(big) <- merge st.payload.(big) st.payload.(small);
  st.count.(big) <- st.count.(big) + st.count.(small);
  st.parent.(small) <- big;
  let big_adj = st.adj.(big) and small_adj = st.adj.(small) in
  Adj.remove big_adj small_id;
  Adj.remove small_adj big_id;
  (* Re-point the absorbed group's edges at the survivor. *)
  Adj.iter
    (fun n wn ->
      let rn = find st (index st n) in
      if rn <> big then begin
        let rn_id = id st rn in
        let combined =
          match Adj.find big_adj rn_id with
          | existing -> existing +. wn
          | exception Not_found -> wn
        in
        Adj.replace big_adj rn_id combined;
        Adj.replace st.adj.(rn) big_id combined;
        Adj.remove st.adj.(rn) small_id;
        on_combined big rn combined
      end)
    small_adj

(* Groups in output order: decreasing size, ties by ascending
   representative. *)
let finalize st =
  let roots = ref [] in
  for i = Array.length st.parent - 1 downto 0 do
    if live st i then roots := i :: !roots
  done;
  List.map
    (fun i -> st.payload.(i))
    (List.sort
       (fun a b ->
         match Int.compare st.count.(b) st.count.(a) with
         | 0 -> Int.compare (id st a) (id st b)
         | c -> c)
       !roots)

(* Whether the heap entry [(w, x)] is stale: its groups have merged, or
   their edge has since been combined to another weight. *)
let current st w x =
  let ru = find st (x lsr 24) and rv = find st (x land 0xFFFFFF) in
  ru <> rv
  &&
  match Adj.find st.adj.(ru) (id st rv) with
  | c -> c = w
  | exception Not_found -> false

(* Journal hook: one record per decision, taken BEFORE the merge mutates
   the state so sizes and adjacency are the ones the decision saw (and so
   the algorithm's merge callback can annotate this record with its offset
   choice).  The runner-up is the entry the heap would surface next if the
   winner did not exist: the heaviest non-stale entry over a different
   group pair, ties broken by insertion ordinal exactly like the pop.
   The scan is non-destructive ([Heap.iter_entries]) — pop/re-push would
   renumber entries and perturb later tie-breaking. *)
let record_decision st heap ~ru ~rv ~w =
  let best = ref None in
  Heap.iter_entries heap (fun prio seq x ->
      let u' = find st (x lsr 24) and v' = find st (x land 0xFFFFFF) in
      if
        (not ((u' = ru && v' = rv) || (u' = rv && v' = ru)))
        && current st prio x
      then
        match !best with
        | Some (bp, bs, _, _) when bp > prio || (bp = prio && bs < seq) -> ()
        | _ -> best := Some (prio, seq, id st u', id st v'));
  let runner_up =
    Option.map
      (fun (prio, _, u', v') ->
        { Journal.r_u = min u' v'; r_v = max u' v'; r_weight = prio })
      !best
  in
  let u = id st ru and v = id st rv in
  let size_u, size_v =
    if u < v then (st.count.(ru), st.count.(rv)) else (st.count.(rv), st.count.(ru))
  in
  Journal.record ~u:(min u v) ~v:(max u v) ~weight:w ~size_u ~size_v ?runner_up ()

let run ~graph ~init ~merge =
  let pops = ref 0 and stale_pops = ref 0 and merges = ref 0 in
  let heap = Heap.create ~capacity:(2 * Graph.n_edges graph) () in
  let st =
    init_state ~graph ~init ~on_edge:(fun a b w -> Heap.push heap w (pack a b))
  in
  let on_combined a b combined = Heap.push heap combined (pack a b) in
  while not (Heap.is_empty heap) do
    let w = Heap.max_prio heap and x = Heap.max_payload heap in
    Heap.drop_max heap;
    incr pops;
    if not (current st w x) then incr stale_pops
    else begin
      incr merges;
      let ru = find st (x lsr 24) and rv = find st (x land 0xFFFFFF) in
      if Journal.recording () then record_decision st heap ~ru ~rv ~w;
      let t0 =
        if Trg_obs.Prof.enabled () then Trg_util.Clock.monotonic () else 0.
      in
      apply_merge st ~merge ~on_combined ru rv;
      if Trg_obs.Prof.enabled () then
        Trg_obs.Metrics.observe (Lazy.force h_merge_us)
          (1e6 *. (Trg_util.Clock.monotonic () -. t0))
    end
  done;
  Trg_obs.Metrics.incr m_runs;
  Trg_obs.Metrics.add m_pops !pops;
  Trg_obs.Metrics.add m_stale !stale_pops;
  Trg_obs.Metrics.add m_merges !merges;
  finalize st

(* The live groups in the order the earlier driver's group table, a
   polymorphic [Hashtbl] filled once with every id in ascending order
   and then only shrunk, iterated them: a table filled by the same calls
   iterates the same way, and removals reorder nothing. *)
let iter_groups_in_table_order st f =
  let order = Adj.create 64 in
  List.iter (fun v -> Adj.replace order v ()) (Graph.nodes st.graph);
  Adj.iter
    (fun v () ->
      let i = index st v in
      if live st i then f i)
    order

let replay ~graph ~init ~merge ~decisions =
  Trg_obs.Metrics.incr (Lazy.force m_replays);
  let st = init_state ~graph ~init ~on_edge:(fun _ _ _ -> ()) in
  let fail step fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "replay: step %d: %s" step msg))
      fmt
  in
  let on_combined _ _ _ = () in
  Array.iter
    (fun (d : Journal.decision) ->
      let step = d.Journal.step in
      let group_of what v =
        let i = index st v in
        if i >= 0 && live st i then i
        else fail step "%s %d is not a live group" what v
      in
      let gu = group_of "group" d.Journal.d_u
      and gv = group_of "group" d.Journal.d_v in
      (match Adj.find_opt st.adj.(gu) d.Journal.d_v with
      | Some w when w = d.Journal.weight -> ()
      | Some w ->
        fail step "edge (%d,%d) weighs %h, journal claims %h" d.Journal.d_u
          d.Journal.d_v w d.Journal.weight
      | None ->
        fail step "no edge between groups %d and %d" d.Journal.d_u
          d.Journal.d_v);
      if st.count.(gu) <> d.Journal.size_u || st.count.(gv) <> d.Journal.size_v
      then
        fail step "group sizes (%d,%d) do not match journal (%d,%d)"
          st.count.(gu) st.count.(gv) d.Journal.size_u d.Journal.size_v;
      (match d.Journal.runner_up with
      | None -> ()
      | Some r ->
        let ga = group_of "runner-up group" r.Journal.r_u in
        ignore (group_of "runner-up group" r.Journal.r_v);
        (match Adj.find_opt st.adj.(ga) r.Journal.r_v with
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
      apply_merge st ~merge ~on_combined gu gv)
    decisions;
  (* A complete greedy run drains every mergeable edge, so a journal that
     leaves adjacency behind was cut short (or belongs to another graph). *)
  iter_groups_in_table_order st (fun i ->
      let left = Adj.length st.adj.(i) in
      if left <> 0 then
        failwith
          (Printf.sprintf
             "replay: journal ended after %d steps but group %d still has %d \
              mergeable edge(s)"
             (Array.length decisions) (id st i) left));
  finalize st
