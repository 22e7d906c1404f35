type outcome = Finished | Failed

type record = {
  name : string;
  path : string;
  depth : int;
  start_s : float;
  wall_s : float;
  alloc_words : float;
  outcome : outcome;
  lane : int option;
}

(* Process epoch for span start times: fixed once at module load, so every
   record's [start_s] lives on one shared, monotone-enough axis and the
   Chrome-trace export can place spans without reconstructing nesting. *)
let epoch = Unix.gettimeofday ()

type frame = { f_name : string; f_path : string; t0 : float; alloc0 : float }

let on = ref false

let set_enabled v = on := v

let enabled () = !on

let stack : frame list ref = ref []

let completed : record list ref = ref []

(* Words ever allocated by the program: immune to collections, so deltas
   are monotone by construction.  [Gc.minor_words] reads the live young
   pointer; [quick_stat.minor_words] only advances at minor collections,
   which would hide most of a short span's allocation in native code.
   The minor collection first settles the counters: without it, words a
   span promoted could be counted only at a later read, in a later
   span.  Both reads of a span sit outside its timed window. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let enter name =
  let path =
    match !stack with [] -> name | top :: _ -> top.f_path ^ "/" ^ name
  in
  let alloc0 = allocated_words () in
  stack := { f_name = name; f_path = path; t0 = Unix.gettimeofday (); alloc0 } :: !stack

let leave outcome =
  match !stack with
  | [] -> ()
  | top :: rest ->
    stack := rest;
    let wall_s = Float.max 0. (Unix.gettimeofday () -. top.t0) in
    let alloc_words = Float.max 0. (allocated_words () -. top.alloc0) in
    completed :=
      {
        name = top.f_name;
        path = top.f_path;
        depth = List.length rest;
        start_s = Float.max 0. (top.t0 -. epoch);
        wall_s;
        alloc_words;
        outcome;
        lane = None;
      }
      :: !completed

let with_ name f =
  if not !on then f ()
  else begin
    enter name;
    match f () with
    | v ->
      leave Finished;
      v
    | exception e ->
      leave Failed;
      raise e
  end

let records () = List.rev !completed

let inject ?lane rs =
  let rs =
    match lane with
    | None -> rs
    | Some _ ->
      (* Worker lanes beat any lane recorded inside the worker: the
         absorbing pool knows which lane actually ran the span. *)
      List.map (fun r -> { r with lane }) rs
  in
  completed := List.rev_append rs !completed

let reset () = completed := []

let to_json () =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           ([
              ("name", Json.String r.name);
              ("path", Json.String r.path);
              ("depth", Json.Int r.depth);
              ("start_s", Json.Float r.start_s);
              ("wall_s", Json.Float r.wall_s);
              ("alloc_words", Json.Float r.alloc_words);
              ( "outcome",
                Json.String
                  (match r.outcome with Finished -> "ok" | Failed -> "failed") );
            ]
           @ match r.lane with None -> [] | Some l -> [ ("lane", Json.Int l) ]))
       (records ()))

(* Chrome trace-event format: one complete ("ph": "X") event per span,
   timestamps and durations in microseconds.  chrome://tracing and
   Perfetto both load the {"traceEvents": [...]} envelope.

   The pid is the exporting process's real pid; the tid is the span's
   worker lane (0 = the main process, n >= 1 = pool worker n), so a
   sharded run renders as parallel rows instead of one stacked lane.
   Metadata events name each lane. *)
let chrome_of_spans ?pid spans =
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  let fallback_clock = ref 0. in
  let lanes = ref [] in
  let events =
    List.map
      (fun s ->
        let str k d =
          match Option.bind (Json.member k s) Json.to_string_opt with
          | Some v -> v
          | None -> d
        in
        let num k d =
          match Option.bind (Json.member k s) Json.to_float with
          | Some v -> v
          | None -> d
        in
        let dur = num "wall_s" 0. in
        let ts =
          (* Manifests older than schema 2 carry no start times; lay those
             spans end to end so the trace still opens, and says so. *)
          match Option.bind (Json.member "start_s" s) Json.to_float with
          | Some t -> t
          | None ->
            let t = !fallback_clock in
            fallback_clock := t +. dur;
            t
        in
        let tid =
          match Option.bind (Json.member "lane" s) Json.to_int with
          | Some l -> l
          | None -> 0
        in
        if not (List.mem tid !lanes) then lanes := tid :: !lanes;
        Json.Obj
          [
            ("name", Json.String (str "name" "?"));
            ("cat", Json.String "trgplace");
            ("ph", Json.String "X");
            ("ts", Json.Float (1e6 *. ts));
            ("dur", Json.Float (1e6 *. dur));
            ("pid", Json.Int pid);
            ("tid", Json.Int tid);
            ( "args",
              Json.Obj
                [
                  ("path", Json.String (str "path" ""));
                  ("alloc_words", Json.Float (num "alloc_words" 0.));
                  ("outcome", Json.String (str "outcome" "ok"));
                ] );
          ])
      spans
  in
  let lane_names =
    List.map
      (fun tid ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("tid", Json.Int tid);
            ( "args",
              Json.Obj
                [
                  ( "name",
                    Json.String
                      (if tid = 0 then "main"
                       else Printf.sprintf "worker %d" tid) );
                ] );
          ])
      (List.sort compare !lanes)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (lane_names @ events));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_chrome () =
  match to_json () with
  | Json.List spans -> chrome_of_spans spans
  | _ -> chrome_of_spans []
