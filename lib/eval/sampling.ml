module Table = Trg_util.Table
module Trace = Trg_trace.Trace
module Trg = Trg_profile.Trg
module Popularity = Trg_profile.Popularity
module Chunk = Trg_program.Chunk
module Gbsc = Trg_place.Gbsc
module Cost = Trg_place.Cost

type row = { fraction : string; events_used : int; miss_rate : float }

type result = { bench : string; full_mr : float; default_mr : float; rows : row list }

(* Keep one [window]-event window in every [factor]. *)
let sampled_trace trace ~window ~factor =
  if factor <= 1 then trace
  else begin
    let builder = Trace.Builder.create () in
    Trace.iteri
      (fun i e -> if i / window mod factor = 0 then Trace.Builder.add builder e)
      trace;
    Trace.Builder.build builder
  end

let run ?(window = 25_000) ?(factors = [ 2; 4; 8 ]) (r : Runner.t) =
  let program = Runner.program r in
  let config = r.Runner.config in
  let keep = Popularity.keep r.Runner.prof.Gbsc.popularity in
  let chunks = r.Runner.prof.Gbsc.chunks in
  let place_from trace =
    let select, place =
      Trg.build ~keep ~capacity_bytes:config.Gbsc.q_capacity program chunks trace
    in
    Gbsc.place_with config program ~select:select.Trg.graph
      ~model:(Cost.Trg_chunks { chunks; trg = place.Trg.graph })
  in
  let row factor =
    let sampled = sampled_trace r.Runner.train ~window ~factor in
    {
      fraction = Printf.sprintf "1/%d" factor;
      events_used = Trace.length sampled;
      miss_rate = Runner.test_miss_rate r (place_from sampled);
    }
  in
  {
    bench = r.Runner.shape.Trg_synth.Shape.name;
    full_mr = Runner.test_miss_rate r (Runner.gbsc_layout r);
    default_mr = Runner.test_miss_rate r (Runner.default_layout r);
    rows = List.map row factors;
  }

let print res =
  Table.section
    (Printf.sprintf "SAMPLED PROFILES — Section 4.4 practicality (%s)" res.bench);
  Table.print
    ~header:[ "profile"; "events used"; "GBSC test MR" ]
    ([ [ "full trace"; "-"; Table.fmt_pct res.full_mr ] ]
    @ List.map
        (fun r ->
          [ r.fraction; Table.fmt_int r.events_used; Table.fmt_pct r.miss_rate ])
        res.rows
    @ [ [ "(default layout)"; "-"; Table.fmt_pct res.default_mr ] ]);
  print_newline ()
