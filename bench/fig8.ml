(* Figure 8: single-iteration cost breakdown for
   AggregateDataInVariable(Qs, Qq_io, AVG) under UW30.

   Bars: old cold, old hot, Slast-50 cold/hot, Slast-25 cold/hot, Slast
   hot, and the same query on the current state.  Components: modeled
   I/O, SPT build, query evaluation, RQL UDF. *)

let run () =
  Util.section "Figure 8 — Single-iteration cost breakdown, AggVar(Qq_io, AVG), UW30";
  Util.expectation
    "old cold dominated by I/O; old hot roughly halves it; iterations near Slast fetch \
     mostly from the database and get cheap; current state is cheapest";
  let uw = Tpch.Workload.uw30 in
  let fx = Fixtures.main uw in
  let history = fx.Fixtures.config.Fixtures.snapshots in
  let ctx = fx.Fixtures.ctx in
  let interval = 25 in
  let run_range start =
    Rql.aggregate_data_in_variable ctx
      ~qs:(Queries.qs_range ~start ~len:interval)
      ~qq:Queries.qq_io ~table:"bench_f8" ~fn:"avg"
  in
  let old_run = Util.record ~experiment:"fig8" ~label:"old" (run_range 1) in
  let r50 = Util.record ~experiment:"fig8" ~label:"Slast-50" (run_range (history - 50)) in
  let r25 = Util.record ~experiment:"fig8" ~label:"Slast-25" (run_range (history - 25)) in
  Util.print_breakdown_header ();
  let cold, hot = Util.cold_hot old_run in
  Util.print_breakdown "old snapshot, cold iteration" cold;
  Util.print_breakdown "old snapshot, hot iteration" hot;
  let cold, hot = Util.cold_hot r50 in
  Util.print_breakdown "Slast-50, cold iteration" cold;
  Util.print_breakdown "Slast-50, hot iteration" hot;
  let cold, hot = Util.cold_hot r25 in
  Util.print_breakdown "Slast-25, cold iteration" cold;
  Util.print_breakdown "Slast-25, hot iteration" hot;
  (* the same old interval with delta-driven iterations: a hot
     iteration evaluates only the heap pages changed since the previous
     snapshot (the paper's loop re-scans all of orders) *)
  ignore (Sqldb.Engine.exec ctx.Rql.data "PRAGMA incremental=on");
  let delta_run =
    Fun.protect
      ~finally:(fun () -> ignore (Sqldb.Engine.exec ctx.Rql.data "PRAGMA incremental=off"))
      (fun () -> Util.record ~experiment:"fig8" ~label:"old, delta" (run_range 1))
  in
  let _, hot = Util.cold_hot delta_run in
  Util.print_breakdown "old snapshot, hot iteration, delta" hot;
  (* the most recent iteration of the interval ending at Slast *)
  (match List.rev r25.Rql.Iter_stats.iterations with
  | last :: _ ->
    Util.print_breakdown "Slast, hot iteration" (Rql.Iter_stats.breakdown_of [ last ])
  | [] -> ());
  (* current state: the same Qq without a snapshot *)
  let t0 = Unix.gettimeofday () in
  ignore (Sqldb.Engine.exec ctx.Rql.data Queries.qq_io);
  let dt = Unix.gettimeofday () -. t0 in
  Util.print_breakdown "current state"
    { Rql.Iter_stats.b_io = 0.; b_spt = 0.; b_index = 0.; b_query = dt; b_udf = 0. }
