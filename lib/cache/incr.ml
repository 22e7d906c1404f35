(* Incremental conflict-cost engine for the placement search.

   The greedy merge loop (Gbsc / Merge_driver) spends almost all of its
   time recomputing Section 4.2 cost arrays from scratch: every merge
   walks every profile edge between the two nodes and charges each line
   pair.  But the cost array is linear in the edge weights, and a merge
   only composes two previously known alignments — so the pairwise cost
   arrays can be maintained incrementally.

   For two placement groups A and B, define

     D_{A,B}(i) = sum of w(a, b) over profile edges with a in A at
                  (mod-C) line l_a and b in B at line l_b such that
                  l_a = (l_b + i) mod C

   — exactly the array [Cost.offsets_cost] computes (its convention:
   [cost.((l1 - l2) mod C)]).  Two identities make deltas cheap:

   - reversal:     D_{B,A}(j)  = D_{A,B}((-j) mod C)
   - composition:  merging B into A at shift s (B's lines move to
                   (l + s) mod C) gives, for any third group W,
                   D_{A∪B,W}(i) = D_{A,W}(i) + D_{B,W}((i - s) mod C)

   so a merge re-costs only the C entries of each pair touching the
   absorbed group — O(degree × C) — instead of re-walking edges.

   Exactness: profile weights are event counts, i.e. integral floats.
   Sums of integral floats are exact (far below 2^53), so the composed
   arrays are bit-identical to from-scratch recomputation and the argmin
   (hence the layout) cannot drift.  The seeder ({!Trg_place.Cost})
   checks every edge weight before it seeds, and falls back to the full
   evaluator when one is not integral.

   Layout: the union-find is an id-indexed [int array], and each group
   root owns an int-keyed map from its neighbour roots to the pair array
   that both ends share.  No cell loop divides: every modular index walk
   below is split into two contiguous ranges. *)

module Metrics = Trg_obs.Metrics

(* All [cost/incr/*] counters are flushed per operation (they are O(1)
   per merge, not per access), and combine by addition, so totals are
   jobs-invariant under the evaluation pool. *)
let m_seeded_pairs = Metrics.counter "cost/incr/seeded_pairs"
let m_queries = Metrics.counter "cost/incr/queries"
let m_merges = Metrics.counter "cost/incr/merges"
let m_deltas = Metrics.counter "cost/incr/deltas_applied"
let m_sets_recosted = Metrics.counter "cost/incr/sets_recosted"

(* Hot-path profile histograms, lazy so [prof/*] stays out of the
   registry (and out of manifests) unless [--profile] observed
   something. *)
let h_charge_us =
  lazy
    (Metrics.histogram ~limits:Trg_obs.Prof.us_limits "prof/incr/charge_us")

let h_apply_us =
  lazy (Metrics.histogram ~limits:Trg_obs.Prof.us_limits "prof/incr/apply_us")

(* Neighbour maps: int keys, hashed as themselves. *)
module Imap = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

type t = {
  n_sets : int;
  mutable parent : int array;
      (* union-find over group ids: [-1] marks a root; ids past the end
         are singleton roots *)
  mutable nbrs : float array Imap.t array;
      (* root -> neighbour root -> the pair array both ends share *)
  mutable frozen : bool;
}

(* Shared by every root without neighbours; never written. *)
let no_nbrs : float array Imap.t = Imap.create 1

let create ~n_sets =
  if n_sets <= 0 then invalid_arg "Incr.create: n_sets must be positive";
  { n_sets; parent = [||]; nbrs = [||]; frozen = false }

let n_sets t = t.n_sets

let check_id id = if id < 0 then invalid_arg "Incr: negative group id"

let reserve t id =
  let n = Array.length t.parent in
  if id >= n then begin
    let m = max (id + 1) (2 * n) in
    let extend a fill =
      let b = Array.make m fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.parent <- extend t.parent (-1);
    t.nbrs <- extend t.nbrs no_nbrs
  end

(* Path-compressing find; ids never seen before are singleton groups. *)
let rec find t p =
  check_id p;
  if p >= Array.length t.parent then p
  else
    let q = t.parent.(p) in
    if q < 0 then p
    else begin
      let root = find t q in
      t.parent.(p) <- root;
      root
    end

let nbrs t root = if root < Array.length t.nbrs then t.nbrs.(root) else no_nbrs

(* A new pair array, zeroed and entered in both ends' maps. *)
let link t a b =
  let d = Array.make t.n_sets 0. in
  let writable root =
    reserve t root;
    if t.nbrs.(root) == no_nbrs then t.nbrs.(root) <- Imap.create 8;
    t.nbrs.(root)
  in
  Imap.replace (writable a) b d;
  Imap.replace (writable b) a d;
  d

(* The pair array of roots [a] and [b], created zeroed when absent. *)
let pair t a b =
  match Imap.find (nbrs t a) b with d -> d | exception Not_found -> link t a b

let seed_pair t ~p1 ~p2 dd ~lo ~hi =
  if t.frozen then invalid_arg "Incr.seed_pair: engine is frozen";
  check_id p1;
  if p1 >= p2 then invalid_arg "Incr.seed_pair: p1 must be below p2";
  if lo < 0 || hi >= Array.length dd then
    invalid_arg "Incr.seed_pair: range outside the buffer";
  let t0 =
    if Trg_obs.Prof.enabled () then Trg_util.Clock.monotonic () else 0.
  in
  let c = t.n_sets in
  let d =
    match Imap.find (nbrs t p1) p2 with
    | d -> d
    | exception Not_found ->
      Metrics.incr m_seeded_pairs;
      link t p1 p2
  in
  (* Integrate twice, folding buffer index i onto set offset i mod C by
     a wrapping counter, and clear the buffer as it is read. *)
  let k = ref (lo mod c) in
  let run1 = ref 0. and run2 = ref 0. in
  for i = lo to hi do
    run1 := !run1 +. dd.(i);
    dd.(i) <- 0.;
    run2 := !run2 +. !run1;
    d.(!k) <- d.(!k) +. !run2;
    incr k;
    if !k = c then k := 0
  done;
  if Trg_obs.Prof.enabled () then
    Metrics.observe (Lazy.force h_charge_us)
      (1e6 *. (Trg_util.Clock.monotonic () -. t0))

let freeze t = t.frozen <- true

(* [target.(i) += src.((i + a) mod C)] for [0 <= a < C]. *)
let add_rotated target src a =
  let c = Array.length target in
  for i = 0 to c - 1 - a do
    target.(i) <- target.(i) +. src.(i + a)
  done;
  for i = c - a to c - 1 do
    target.(i) <- target.(i) +. src.(i + a - c)
  done

(* [target.(i) += src.((k - i) mod C)] for [0 <= k < C]. *)
let add_reflected target src k =
  let c = Array.length target in
  for i = 0 to k do
    target.(i) <- target.(i) +. src.(k - i)
  done;
  for i = k + 1 to c - 1 do
    target.(i) <- target.(i) +. src.(k - i + c)
  done

let cost t ~fixed ~moving =
  Metrics.incr m_queries;
  let rf = find t fixed and rm = find t moving in
  if rf = rm then invalid_arg "Incr.cost: fixed and moving share a group";
  match Imap.find (nbrs t rf) rm with
  | exception Not_found -> Array.make t.n_sets 0.
  | d when rf < rm -> Array.copy d
  | d ->
    (* The stored array is D_{rm,rf}; D_{rf,rm}(i) = D_{rm,rf}((-i) mod C). *)
    let c = t.n_sets in
    let r = Array.make c d.(0) in
    for i = 1 to c - 1 do
      r.(i) <- d.(c - i)
    done;
    r

let apply_merge t ~fixed ~moving ~shift =
  let t0 =
    if Trg_obs.Prof.enabled () then Trg_util.Clock.monotonic () else 0.
  in
  let c = t.n_sets in
  let rf = find t fixed and rm = find t moving in
  if rf = rm then invalid_arg "Incr.apply_merge: groups already merged";
  let s = ((shift mod c) + c) mod c in
  let neg_s = if s = 0 then 0 else c - s in
  let deltas = ref 0 in
  Imap.iter
    (fun w d ->
      if w <> rf then begin
        let target = pair t rf w in
        (* Composition: D_{Z,w}(i) += D_{rm,w}((i - s) mod C), written in
           the target's stored orientation.  [d] is D_{rm,w} when
           rm < w and D_{w,rm} otherwise; the target is D_{rf,w} when
           rf < w and D_{w,rf} otherwise. *)
        (match (rf < w, rm < w) with
        | true, true -> add_rotated target d neg_s
        | true, false -> add_reflected target d s
        | false, true -> add_reflected target d neg_s
        | false, false -> add_rotated target d s);
        Imap.remove (nbrs t w) rm;
        incr deltas
      end)
    (nbrs t rm);
  Imap.remove (nbrs t rf) rm;
  reserve t rm;
  t.nbrs.(rm) <- no_nbrs;
  t.parent.(rm) <- rf;
  Metrics.add m_deltas !deltas;
  Metrics.add m_sets_recosted (!deltas * c);
  Metrics.incr m_merges;
  if Trg_obs.Prof.enabled () then
    Metrics.observe (Lazy.force h_apply_us)
      (1e6 *. (Trg_util.Clock.monotonic () -. t0))
