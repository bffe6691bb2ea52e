(* Capacity planning: choosing between CollateData and the aggregation
   mechanisms (§2.2-2.3, §5.3 of the paper).

   Both approaches compute per-priority statistics across a snapshot
   history; the aggregation mechanism produces the same answer with a
   result table that stays small regardless of how many snapshots Qs
   selects — the paper's memory-footprint argument, measured here.

   Run with:  dune exec examples/capacity_planning.exe *)

module R = Storage.Record
module E = Sqldb.Engine

let show db title sql =
  Printf.printf "\n-- %s\n" title;
  let res = E.exec db sql in
  Printf.printf "   %s\n" (String.concat " | " (Array.to_list res.E.columns));
  List.iter
    (fun row ->
      Printf.printf "   %s\n"
        (String.concat " | " (Array.to_list (Array.map R.value_to_string row))))
    res.E.rows

let () =
  Printf.printf "building TPC-H history (SF 0.005, UW15, 10 snapshots)...\n%!";
  let ctx, _st, _sids =
    Tpch.Workload.build_history ~sf:0.005 ~uw:Tpch.Workload.uw15 ~snapshots:10 ()
  in
  let qs = "SELECT snap_id FROM SnapIds" in
  let qq =
    "SELECT o_orderpriority, COUNT(*) AS orders, AVG(o_totalprice) AS avg_price FROM orders \
     GROUP BY o_orderpriority"
  in

  (* Approach 1: CollateData + SQL over the collected series. *)
  let collate = Rql.collate_data ctx ~qs ~qq ~table:"by_priority_series" in
  show ctx.Rql.meta "priority load, via CollateData + SQL"
    "SELECT o_orderpriority, MAX(orders) AS peak, AVG(avg_price) AS typical_price FROM \
     by_priority_series GROUP BY o_orderpriority ORDER BY o_orderpriority";

  (* Approach 2: AggregateDataInTable folds during the iteration. *)
  let agg =
    Rql.aggregate_data_in_table ctx ~qs ~qq ~table:"by_priority"
      ~aggs:[ ("orders", "max"); ("avg_price", "avg") ]
  in
  show ctx.Rql.meta "priority load, via AggregateDataInTable"
    "SELECT o_orderpriority, orders AS peak, avg_price AS typical_price FROM by_priority \
     ORDER BY o_orderpriority";

  (* The trade-off the paper quantifies: near-identical run time, very
     different result-table footprint. *)
  let t run = Rql.Iter_stats.total_s run in
  Printf.printf "\n-- footprint and latency\n";
  Printf.printf "   CollateData          : %5d rows, %7d bytes, %.4fs\n"
    collate.Rql.Iter_stats.result_rows collate.Rql.Iter_stats.result_bytes (t collate);
  Printf.printf "   AggregateDataInTable : %5d rows, %7d bytes, %.4fs\n"
    agg.Rql.Iter_stats.result_rows agg.Rql.Iter_stats.result_bytes (t agg);
  Printf.printf "   footprint ratio      : %.1fx smaller\n"
    (float_of_int collate.Rql.Iter_stats.result_bytes
    /. float_of_int (max 1 agg.Rql.Iter_stats.result_bytes));

  (* The aggregation mechanisms insist on abelian-monoid functions; the
     paper's workaround for e.g. COUNT DISTINCT is CollateData + SQL. *)
  (match
     Rql.aggregate_data_in_table ctx ~qs ~qq ~table:"bad" ~aggs:[ ("orders", "count distinct") ]
   with
  | exception Rql.Error msg -> Printf.printf "\nrejected as expected: %s\n" msg
  | _ -> assert false);
  print_endline "\ncapacity planning done."
