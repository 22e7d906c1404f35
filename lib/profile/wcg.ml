module Trace = Trg_trace.Trace
module Event = Trg_trace.Event

let m_builds = Trg_obs.Metrics.counter "wcg/builds"
let m_edge_inserts = Trg_obs.Metrics.counter "wcg/edge_inserts"

let build_with ~count_resume trace =
  let counts = Graph.Counts.create () in
  let prev = ref (-1) in
  let inserts = ref 0 in
  for i = 0 to Trace.length trace - 1 do
    let w = Trace.packed trace i in
    let proc = Event.packed_proc w in
    let transition =
      match Event.packed_kind w with
      | Event.Enter -> true
      | Event.Resume -> count_resume
      | Event.Run -> false
    in
    if transition && !prev >= 0 && !prev <> proc then begin
      incr inserts;
      Graph.Counts.add counts !prev proc
    end;
    prev := proc
  done;
  Trg_obs.Metrics.incr m_builds;
  Trg_obs.Metrics.add m_edge_inserts !inserts;
  Graph.Counts.to_graph counts

let build trace = build_with ~count_resume:true trace

let call_counts trace = build_with ~count_resume:false trace
