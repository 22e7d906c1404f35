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
   root owns an int-keyed map from its neighbour roots to the slot of the
   pair array that both ends share.  The slots are slab storage sized
   from the seeded pair count.  A merge never needs a new one: a pair
   the survivor lacks takes over the absorbed group's slot, rewritten in
   place.  No cell loop divides: every modular index walk below is split
   into two contiguous ranges. *)

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

(* Neighbour maps: int keys, hashed as themselves.  Their iteration
   order is immaterial: a merge re-costs each neighbour's pair on its
   own. *)
module Imap = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

(* Pair arrays live in slab storage: slot [s] is the [n_sets] floats at
   [(s land (per_block - 1)) * n_sets] of block [s lsr shift], where a
   block holds [per_block = 1 lsl shift] slots, as many as fit in
   [block_floats] floats (one when a single slot is larger).  Blocks are
   allocated straight in the major heap, so no pair array passes through
   the minor heap, and they all have the same length, so a placement
   can take over the blocks of the one before it ({!release}). *)
let block_floats = 8192

type t = {
  n_sets : int;
  mutable parent : int array;
      (* union-find over group ids: [-1] marks a root; ids past the end
         are singleton roots *)
  mutable nbrs : int Imap.t array;
      (* root -> neighbour root -> the slot of the pair array both ends
         share *)
  mutable frozen : bool;
  mutable released : bool;
  shift : int;
  mutable blocks : float array array;
  mutable n_slots : int; (* slots handed out, in order *)
}

(* Shared by every root without neighbours; never written. *)
let no_nbrs : int Imap.t = Imap.create 1

(* Blocks of released engines, taken by later ones before any is
   allocated: a placement then runs on the storage of the one before
   it.  The references are weak, so a major collection still reclaims
   blocks that no engine has taken by then, as it would without the
   recycling: memory is not held over work that allocates for other
   things.  [spare.(0 .. n_spare - 1)] holds at most [max_spare] blocks
   (16 MiB); a slot the collector has cleared is skipped. *)
let max_spare = 256
let spare : float array Weak.t = Weak.create max_spare
let n_spare = ref 0

let rec take_spare () =
  if !n_spare = 0 then None
  else begin
    decr n_spare;
    match Weak.get spare !n_spare with
    | Some _ as b ->
      Weak.set spare !n_spare None;
      b
    | None -> take_spare ()
  end

let create ~n_sets ~pairs =
  if n_sets <= 0 then invalid_arg "Incr.create: n_sets must be positive";
  let shift = ref 0 in
  while (2 lsl !shift) * n_sets <= block_floats do
    incr shift
  done;
  let per_block = 1 lsl !shift in
  {
    n_sets;
    parent = [||];
    nbrs = [||];
    frozen = false;
    released = false;
    shift = !shift;
    blocks = Array.make (Int.max 1 ((pairs + per_block - 1) / per_block)) [||];
    n_slots = 0;
  }

let release t =
  if not t.released then begin
    t.released <- true;
    Array.iter
      (fun b ->
        if Array.length b = block_floats && !n_spare < max_spare then begin
          Weak.set spare !n_spare (Some b);
          incr n_spare
        end)
      t.blocks;
    t.blocks <- [||];
    t.nbrs <- [||]
  end

let check_live t what =
  if t.released then invalid_arg ("Incr." ^ what ^ ": engine released")

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

let block t s = t.blocks.(s lsr t.shift)

let base t s = (s land ((1 lsl t.shift) - 1)) * t.n_sets

(* The next slot, zeroed; a new block when the last one is full. *)
let new_slot t =
  let s = t.n_slots in
  let b = s lsr t.shift in
  if b = Array.length t.blocks then begin
    let blocks = Array.make (2 * b) [||] in
    Array.blit t.blocks 0 blocks 0 b;
    t.blocks <- blocks
  end;
  if Array.length t.blocks.(b) = 0 then
    t.blocks.(b) <-
      (match if t.n_sets <= block_floats then take_spare () else None with
      | Some block -> block
      | None -> Array.create_float (Int.max block_floats t.n_sets));
  t.n_slots <- s + 1;
  Array.fill t.blocks.(b) (base t s) t.n_sets 0.;
  s

let writable t root =
  reserve t root;
  if t.nbrs.(root) == no_nbrs then t.nbrs.(root) <- Imap.create 8;
  t.nbrs.(root)

(* A new zeroed pair array, entered in both ends' maps. *)
let link t a b =
  let s = new_slot t in
  Imap.replace (writable t a) b s;
  Imap.replace (writable t b) a s;
  s

let seed_pair t ~p1 ~p2 dd ~lo ~hi =
  check_live t "seed_pair";
  if t.frozen then invalid_arg "Incr.seed_pair: engine is frozen";
  check_id p1;
  if p1 >= p2 then invalid_arg "Incr.seed_pair: p1 must be below p2";
  if lo < 0 || hi >= Array.length dd then
    invalid_arg "Incr.seed_pair: range outside the buffer";
  let t0 =
    if Trg_obs.Prof.enabled () then Trg_util.Clock.monotonic () else 0.
  in
  let c = t.n_sets in
  let s =
    match Imap.find (nbrs t p1) p2 with
    | s -> s
    | exception Not_found ->
      Metrics.incr m_seeded_pairs;
      link t p1 p2
  in
  let d = block t s and b = base t s in
  (* Integrate twice, folding buffer index i onto set offset i mod C by
     a wrapping counter, and clear the buffer as it is read.  [lo .. hi]
     was checked against the buffer above and [b + k] stays in the
     slot, so the accesses go unchecked. *)
  let k = ref (lo mod c) in
  let run1 = ref 0. and run2 = ref 0. in
  for i = lo to hi do
    run1 := !run1 +. Array.unsafe_get dd i;
    Array.unsafe_set dd i 0.;
    run2 := !run2 +. !run1;
    Array.unsafe_set d (b + !k) (Array.unsafe_get d (b + !k) +. !run2);
    incr k;
    if !k = c then k := 0
  done;
  if Trg_obs.Prof.enabled () then
    Metrics.observe (Lazy.force h_charge_us)
      (1e6 *. (Trg_util.Clock.monotonic () -. t0))

let freeze t = t.frozen <- true

(* The cell loops below take each array as (block, base) and walk it as
   two contiguous ranges, so none divides.  A slot's [n_sets] cells lie
   inside its block by construction, so their accesses go unchecked. *)

let[@inline] get (a : float array) i = Array.unsafe_get a i
let[@inline] set (a : float array) i x = Array.unsafe_set a i x

(* [target.(i) += src.((i + a) mod C)] for [0 <= a < C]. *)
let add_rotated c tg tb src sb a =
  for i = 0 to c - 1 - a do
    set tg (tb + i) (get tg (tb + i) +. get src (sb + i + a))
  done;
  for i = c - a to c - 1 do
    set tg (tb + i) (get tg (tb + i) +. get src (sb + i + a - c))
  done

(* [target.(i) += src.((k - i) mod C)] for [0 <= k < C]. *)
let add_reflected c tg tb src sb k =
  for i = 0 to k do
    set tg (tb + i) (get tg (tb + i) +. get src (sb + k - i))
  done;
  for i = k + 1 to c - 1 do
    set tg (tb + i) (get tg (tb + i) +. get src (sb + k - i + c))
  done

(* Reverses [a.(lo .. hi)]. *)
let reverse a lo hi =
  let i = ref lo and j = ref hi in
  while !i < !j do
    let x = get a !i in
    set a !i (get a !j);
    set a !j x;
    incr i;
    decr j
  done

(* In place, [x.(i) <- x.((i + a) mod C)]: what [add_rotated] adds to a
   zero target, by three reversals. *)
let rotate c x b a =
  if a > 0 then begin
    reverse x b (b + a - 1);
    reverse x (b + a) (b + c - 1);
    reverse x b (b + c - 1)
  end

(* In place, [x.(i) <- x.((k - i) mod C)]: what [add_reflected] adds to
   a zero target, by two reversals. *)
let reflect c x b k =
  reverse x b (b + k);
  reverse x (b + k + 1) (b + c - 1)

let cost t ~fixed ~moving =
  check_live t "cost";
  Metrics.incr m_queries;
  let rf = find t fixed and rm = find t moving in
  if rf = rm then invalid_arg "Incr.cost: fixed and moving share a group";
  match Imap.find (nbrs t rf) rm with
  | exception Not_found -> Array.make t.n_sets 0.
  | s when rf < rm -> Array.sub (block t s) (base t s) t.n_sets
  | s ->
    (* The stored array is D_{rm,rf}; D_{rf,rm}(i) = D_{rm,rf}((-i) mod C). *)
    let c = t.n_sets and d = block t s and b = base t s in
    let r = Array.make c d.(b) in
    for i = 1 to c - 1 do
      r.(i) <- d.(b + c - i)
    done;
    r

let apply_merge t ~fixed ~moving ~shift =
  let t0 =
    if Trg_obs.Prof.enabled () then Trg_util.Clock.monotonic () else 0.
  in
  check_live t "apply_merge";
  let c = t.n_sets in
  let rf = find t fixed and rm = find t moving in
  if rf = rm then invalid_arg "Incr.apply_merge: groups already merged";
  let s = ((shift mod c) + c) mod c in
  let neg_s = if s = 0 then 0 else c - s in
  let deltas = ref 0 in
  Imap.iter
    (fun w slot ->
      if w <> rf then begin
        (* Composition: D_{Z,w}(i) += D_{rm,w}((i - s) mod C), written in
           the target's stored orientation.  The source is D_{rm,w} when
           rm < w and D_{w,rm} otherwise; the target is D_{rf,w} when
           rf < w and D_{w,rf} otherwise. *)
        let d = block t slot and db = base t slot in
        (match Imap.find (nbrs t rf) w with
        | target ->
          let tg = block t target and tb = base t target in
          (match (rf < w, rm < w) with
          | true, true -> add_rotated c tg tb d db neg_s
          | true, false -> add_reflected c tg tb d db s
          | false, true -> add_reflected c tg tb d db neg_s
          | false, false -> add_rotated c tg tb d db s)
        | exception Not_found ->
          (* No (rf, w) pair yet: the source's slot becomes it, rewritten
             in place into what the additions would give from zero. *)
          (match (rf < w, rm < w) with
          | true, true -> rotate c d db neg_s
          | true, false -> reflect c d db s
          | false, true -> reflect c d db neg_s
          | false, false -> rotate c d db s);
          Imap.replace (writable t rf) w slot;
          Imap.replace (nbrs t w) rf slot);
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
