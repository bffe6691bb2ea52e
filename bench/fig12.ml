(* Figure 12: single-iteration cost of CollateData vs
   AggregateDataInTable on the same Qq_agg (UW30).

   The AggTable cold iteration also builds the result-table index; its
   hot iterations look up one group in the run's map of T per Qq row
   and fold into it, plus occasional inserts/updates, while CollateData
   does one plain insert per row. *)

module IS = Rql.Iter_stats

let run () =
  Util.section "Figure 12 — Single-iteration cost: CollateData vs AggregateDataInTable";
  Util.expectation
    "AggTable cold > Collate cold (result-table index creation); AggTable hot > Collate \
     hot (a lookup and a fold per row, few updates vs an insert per row)";
  let p = Params.p () in
  let n = p.Params.agg_snapshots in
  let uw = Tpch.Workload.uw30 in
  let fx = Fixtures.main uw in
  let ctx = fx.Fixtures.ctx in
  let qs = Queries.qs_n n in
  let collate = Rql.collate_data ctx ~qs ~qq:Queries.qq_agg ~table:"f12_collate" in
  let agg =
    Rql.aggregate_data_in_table ctx ~qs ~qq:Queries.qq_agg ~table:"f12_agg"
      ~aggs:[ ("cn", "max") ]
  in
  Util.print_breakdown_header ();
  let c_cold, c_hot = Util.cold_hot collate in
  let a_cold, a_hot = Util.cold_hot agg in
  Util.print_breakdown "CollateData, cold iteration" c_cold;
  Util.print_breakdown "AggregateDataInTable, cold iteration" a_cold;
  Util.print_breakdown "CollateData, hot iteration" c_hot;
  Util.print_breakdown "AggregateDataInTable, hot iteration" a_hot;
  let ops run =
    let hots = Util.hot_iterations run in
    let div x = x / max 1 (List.length hots) in
    ( div (List.fold_left (fun a it -> a + it.IS.udf_rows) 0 hots),
      div (List.fold_left (fun a it -> a + it.IS.udf_inserts) 0 hots),
      div (List.fold_left (fun a it -> a + it.IS.udf_updates) 0 hots) )
  in
  let cr, ci, cu = ops collate and ar, ai, au = ops agg in
  Printf.printf
    "per hot iteration — Collate: %d rows -> %d inserts, %d updates; AggTable: %d rows -> \
     %d lookups, %d inserts, %d updates\n"
    cr ci cu ar ar ai au
