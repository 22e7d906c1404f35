(* Reference helper: the number of distinct memory lines a trace touches
   under a layout, the compulsory-miss floor of any cache with that line
   size.  A hash set of line addresses, one entry per line.  Tests
   only. *)

module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Trace = Trg_trace.Trace
module Event = Trg_trace.Event

let distinct_lines program layout (config : Trg_cache.Config.t) trace =
  let addr = Array.init (Program.n_procs program) (Layout.address layout) in
  let line_size = config.Trg_cache.Config.line_size in
  let seen = Hashtbl.create 1024 in
  Trace.iter
    (fun (e : Event.t) ->
      let base = addr.(e.proc) + e.offset in
      for la = base / line_size to (base + e.len - 1) / line_size do
        Hashtbl.replace seen la ()
      done)
    trace;
  Hashtbl.length seen
