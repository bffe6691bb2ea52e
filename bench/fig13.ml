(* Figure 13: AggregateDataInTable with MAX vs SUM (Qq_agg, UW30).

   Cold iterations are identical (same inserts, same index creation).
   Hot iterations look up and fold into one group of the result table
   per Qq row in both cases, but SUM must update the accumulator for
   every row whereas MAX only updates when the maximum actually moves. *)

module IS = Rql.Iter_stats

let run () =
  Util.section "Figure 13 — AggregateDataInTable: MAX vs SUM aggregation";
  Util.expectation
    "cold iterations equal; SUM hot iterations cost more than MAX because nearly every \
     row looked up is also updated";
  let p = Params.p () in
  let n = p.Params.agg_snapshots in
  let uw = Tpch.Workload.uw30 in
  let fx = Fixtures.main uw in
  let ctx = fx.Fixtures.ctx in
  let qs = Queries.qs_n n in
  let run_fn fn table =
    Rql.aggregate_data_in_table ctx ~qs ~qq:Queries.qq_agg ~table ~aggs:[ ("cn", fn) ]
  in
  let rmax = run_fn "max" "f13_max" in
  let rsum = run_fn "sum" "f13_sum" in
  Util.print_breakdown_header ();
  let mx_cold, mx_hot = Util.cold_hot rmax in
  let sm_cold, sm_hot = Util.cold_hot rsum in
  Util.print_breakdown "MAX aggregation, cold iteration" mx_cold;
  Util.print_breakdown "SUM aggregation, cold iteration" sm_cold;
  Util.print_breakdown "MAX aggregation, hot iteration" mx_hot;
  Util.print_breakdown "SUM aggregation, hot iteration" sm_hot;
  let upd run =
    let hots = Util.hot_iterations run in
    List.fold_left (fun a it -> a + it.IS.udf_updates) 0 hots / max 1 (List.length hots)
  in
  Printf.printf "updates per hot iteration: MAX %d vs SUM %d\n" (upd rmax) (upd rsum)
