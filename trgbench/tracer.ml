(* Span recorder for the traced run.

   Each call into a layer is wrapped from the outside, in the benchmark's
   own code: a span records its name, start and end on the monotonic
   clock, the span that encloses it, the job it belongs to and the words
   allocated while it was open.  Spans stay in memory and are written out
   once, at exit, in the Chrome trace-event format.  When the recorder is
   off, [with_] is one flag test and a call, so the untraced run measures
   the program rather than the recorder. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** id of the enclosing span; [-1] at the top *)
  start_s : float;
  end_s : float;
  alloc_words : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_job = ref (-1)

(* Time spent inside the recorder itself: the numerator of
   tracing.overhead_pct. *)
let overhead_s = ref 0.

let now = Trg_util.Clock.monotonic

(* Words allocated so far by this process (minor + major - promoted, the
   same accounting as Trg_obs.Span). *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let start () =
  enabled := true;
  recorded := [];
  next_id := 0;
  open_ids := [];
  overhead_s := 0.

let stop () = enabled := false

let set_job j = current_job := j

let with_ name f =
  if not !enabled then f ()
  else begin
    let entered = now () in
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let job = !current_job in
    let a0 = allocated () in
    let t0 = now () in
    overhead_s := !overhead_s +. (t0 -. entered);
    let finish () =
      let t1 = now () in
      let a1 = allocated () in
      open_ids := List.tl !open_ids;
      recorded :=
        { id; name; job; parent; start_s = t0; end_s = t1; alloc_words = a1 -. a0 }
        :: !recorded;
      overhead_s := !overhead_s +. (now () -. t1)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () = List.rev !recorded

(* Self time and self allocation: a span's own figures minus those of the
   spans directly inside it.  Children of one span never overlap (the
   benchmark is single-threaded), so subtracting their sum is exact. *)
let self_costs spans =
  let child_s = Hashtbl.create 64 and child_w = Hashtbl.create 64 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        bump child_s s.parent (s.end_s -. s.start_s);
        bump child_w s.parent s.alloc_words
      end)
    spans;
  List.map
    (fun s ->
      let get tbl = Option.value (Hashtbl.find_opt tbl s.id) ~default:0. in
      (s, s.end_s -. s.start_s -. get child_s, s.alloc_words -. get child_w))
    spans

let to_chrome spans =
  let module J = Trg_obs.Json in
  let epoch = List.fold_left (fun m s -> Float.min m s.start_s) infinity spans in
  let pid = Unix.getpid () in
  let us t = J.Float (1e6 *. t) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.name);
                   ("cat", J.String "trgbench");
                   ("ph", J.String "X");
                   ("ts", us (s.start_s -. epoch));
                   ("dur", us (s.end_s -. s.start_s));
                   ("pid", J.Int pid);
                   ("tid", J.Int 1);
                   ( "args",
                     J.Obj
                       [
                         ("id", J.Int s.id);
                         ("parent", J.Int s.parent);
                         ("job", J.Int s.job);
                         ("alloc_words", J.Float s.alloc_words);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", J.String "ms");
    ]
