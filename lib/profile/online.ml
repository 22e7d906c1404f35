module Program = Trg_program.Program
module Event = Trg_trace.Event
module Tstats = Trg_trace.Tstats

type t = {
  trgs : Trg.Both.t;
  enter_counts : int array;
  ref_counts : int array;
  mutable n_events : int;
  mutable n_transitions : int;
  mutable bytes : int;
}

let create ~capacity_bytes program chunks =
  let n = Program.n_procs program in
  {
    trgs = Trg.Both.create ~capacity_bytes program chunks;
    enter_counts = Array.make n 0;
    ref_counts = Array.make n 0;
    n_events = 0;
    n_transitions = 0;
    bytes = 0;
  }

let observe t (e : Event.t) =
  t.n_events <- t.n_events + 1;
  t.ref_counts.(e.proc) <- t.ref_counts.(e.proc) + 1;
  t.bytes <- t.bytes + e.len;
  (match e.kind with
  | Event.Enter ->
    t.enter_counts.(e.proc) <- t.enter_counts.(e.proc) + 1;
    t.n_transitions <- t.n_transitions + 1
  | Event.Resume -> t.n_transitions <- t.n_transitions + 1
  | Event.Run -> ());
  (* The same loop the offline builders run, fed as events arrive. *)
  Trg.Both.event t.trgs (Event.pack e)

let events_seen t = t.n_events

type snapshot = { tstats : Tstats.t; select : Trg.built; place : Trg.built }

let finish t =
  let n_procs_referenced =
    Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 t.ref_counts
  in
  let select, place = Trg.Both.finish t.trgs in
  {
    tstats =
      {
        Tstats.n_events = t.n_events;
        n_transitions = t.n_transitions;
        n_procs_referenced;
        enter_counts = Array.copy t.enter_counts;
        ref_counts = Array.copy t.ref_counts;
        bytes_executed = t.bytes;
      };
    select;
    place;
  }
