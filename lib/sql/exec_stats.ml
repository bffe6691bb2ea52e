(* Executor-side timing attribution.  The paper's per-iteration cost
   breakdown (Figs 8-13) splits time into I/O, SPT build, index creation
   and query evaluation; the executor accumulates the SPT-build and
   index-creation components and the RQL layer reads their deltas in the
   evaluating session's scope.

   The accumulators live in the Obs.Metrics registry — the root metric
   scope — reached through Obs.Scope handles (gauges for the elapsed
   seconds, counters for the event counts, plus log-scale latency
   histograms), so SPT and index builds are charged to whatever scope
   is active.  This module holds no independent mutable totals. *)

let g_spt_build_s = Obs.Scope.gauge "sql.spt_build_s"
let g_index_build_s = Obs.Scope.gauge "sql.index_build_s"
let c_spt_builds = Obs.Scope.counter "sql.spt_builds"
let c_index_builds = Obs.Scope.counter "sql.index_builds"
let h_spt_build = Obs.Scope.histogram "sql.spt_build_latency"
let h_index_build = Obs.Scope.histogram "sql.index_build_latency"

let now () = Unix.gettimeofday ()

(* Run [f], crediting its elapsed time to [record] even when [f] raises,
   so a failing build's partial time still lands in the deltas of the
   surviving iterations. *)
let time_into record f =
  let t0 = now () in
  match f () with
  | r ->
    record (now () -. t0);
    r
  | exception e ->
    record (now () -. t0);
    raise e

(* Account an SPT construction: seconds gauge + count + latency
   histogram, raise-safe. *)
let time_spt f =
  time_into
    (fun dt ->
      Obs.Scope.gauge_add g_spt_build_s dt;
      Obs.Scope.incr c_spt_builds;
      Obs.Scope.observe h_spt_build dt)
    f

(* Account an automatic (covering) index construction; also emits a
   trace span so index builds show up in EXPLAIN PROFILE / trace dumps. *)
let time_index f =
  Obs.Trace.with_span ~name:"index_build" (fun () ->
      time_into
        (fun dt ->
          Obs.Scope.gauge_add g_index_build_s dt;
          Obs.Scope.incr c_index_builds;
          Obs.Scope.observe h_index_build dt)
        f)
