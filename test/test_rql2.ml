(* Second RQL suite: iteration-statistics invariants, snapshot-set
   ordering semantics, the all-cold baseline, AVG's incremental
   behaviour in the SQL-UDF form, multi-column interval keys, and
   non-snapshot isolation of the meta database. *)

module R = Storage.Record
module E = Sqldb.Engine
module IS = Rql.Iter_stats

let value = Alcotest.testable R.pp_value R.equal_value
let row = Alcotest.(list value)

let rows_of res = List.map Array.to_list res.E.rows
let q ctx sql = rows_of (E.exec ctx.Rql.meta sql)

(* A small history with churn on a two-column table. *)
let history () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE ev (u TEXT, g TEXT, v INTEGER)";
  e "INSERT INTO ev VALUES ('u1','g1',10), ('u2','g1',20), ('u3','g2',30)";
  ignore (Rql.declare_snapshot ctx);
  e "UPDATE ev SET v = v + 1 WHERE u = 'u1'";
  e "DELETE FROM ev WHERE u = 'u3'";
  ignore (Rql.declare_snapshot ctx);
  e "INSERT INTO ev VALUES ('u3','g2',99), ('u4','g2',5)";
  ignore (Rql.declare_snapshot ctx);
  ctx

let qs_all = "SELECT snap_id FROM SnapIds"

let stats_invariants =
  [ Alcotest.test_case "iteration components are non-negative and counted" `Quick (fun () ->
        let ctx = history () in
        let run = Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u, v FROM ev" ~table:"T" in
        List.iter
          (fun (it : IS.iteration) ->
            Alcotest.(check bool) "io >= 0" true (it.IS.io_s >= 0.);
            Alcotest.(check bool) "spt >= 0" true (it.IS.spt_build_s >= 0.);
            Alcotest.(check bool) "query >= 0" true (it.IS.query_eval_s >= 0.);
            Alcotest.(check bool) "udf >= 0" true (it.IS.udf_s >= 0.);
            Alcotest.(check int) "collate inserts = rows" it.IS.udf_rows it.IS.udf_inserts;
            Alcotest.(check bool) "total = components" true
              (Float.abs (IS.iteration_total it
                          -. (it.IS.io_s +. it.IS.spt_build_s +. it.IS.index_build_s
                              +. it.IS.query_eval_s +. it.IS.udf_s))
               < 1e-9))
          run.IS.iterations;
        Alcotest.(check int) "result rows = total inserts"
          (List.fold_left (fun a it -> a + it.IS.udf_inserts) 0 run.IS.iterations)
          run.IS.result_rows);
    Alcotest.test_case "total_s sums iterations plus finalize" `Quick (fun () ->
        let ctx = history () in
        let run = Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"T" in
        let sum =
          List.fold_left (fun a it -> a +. IS.iteration_total it) run.IS.finalize_s
            run.IS.iterations
        in
        Alcotest.(check bool) "equal" true (Float.abs (sum -. IS.total_s run) < 1e-9));
    Alcotest.test_case "breakdown_of aggregates components" `Quick (fun () ->
        let ctx = history () in
        let run = Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"T" in
        let b = IS.breakdown_of run.IS.iterations in
        Alcotest.(check bool) "matches total" true
          (Float.abs (IS.breakdown_total b +. run.IS.finalize_s -. IS.total_s run) < 1e-9)) ]

let ordering =
  [ Alcotest.test_case "Qs in descending order still collates everything" `Quick (fun () ->
        let ctx = history () in
        let asc = Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"A" in
        let desc =
          Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds ORDER BY snap_id DESC"
            ~qq:"SELECT u FROM ev" ~table:"D"
        in
        Alcotest.(check int) "same rows" asc.IS.result_rows desc.IS.result_rows;
        Alcotest.(check (list int)) "iterated descending" [ 3; 2; 1 ]
          (List.map (fun it -> it.IS.snap_id) desc.IS.iterations));
    Alcotest.test_case "aggregation order does not change monoid results" `Quick (fun () ->
        let ctx = history () in
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT g, COUNT(*) AS c FROM ev GROUP BY g" ~table:"A"
             ~aggs:[ ("c", "max") ]);
        ignore
          (Rql.aggregate_data_in_table ctx
             ~qs:"SELECT snap_id FROM SnapIds ORDER BY snap_id DESC"
             ~qq:"SELECT g, COUNT(*) AS c FROM ev GROUP BY g" ~table:"D"
             ~aggs:[ ("c", "max") ]);
        Alcotest.(check (list row)) "commutative"
          (q ctx "SELECT g, c FROM A ORDER BY g")
          (q ctx "SELECT g, c FROM D ORDER BY g")) ]

let all_cold =
  [ Alcotest.test_case "all-cold run costs at least the shared run" `Quick (fun () ->
        let ctx, _st, _ =
          Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:8 ()
        in
        let qq = "SELECT COUNT(*) AS c FROM orders" in
        let shared =
          Rql.aggregate_data_in_variable ctx ~qs:qs_all ~qq ~table:"S" ~fn:"avg"
        in
        let cold =
          Rql.aggregate_data_in_variable ~all_cold:true ctx ~qs:qs_all ~qq ~table:"C" ~fn:"avg"
        in
        let reads run = List.fold_left (fun a it -> a + it.IS.pagelog_reads) 0 run.IS.iterations in
        Alcotest.(check bool)
          (Printf.sprintf "cold %d >= shared %d" (reads cold) (reads shared))
          true
          (reads cold >= reads shared);
        (* identical results either way *)
        Alcotest.(check (list row)) "same answer" (q ctx "SELECT * FROM S")
          (q ctx "SELECT * FROM C")) ]

let avg_udf =
  [ Alcotest.test_case "SQL-form AggVar avg is correct without an end-of-run signal" `Quick
      (fun () ->
        let ctx = history () in
        ignore
          (E.exec ctx.Rql.meta
             "SELECT AggregateDataInVariable(snap_id, 'SELECT COUNT(*) AS c FROM ev', 'T', \
              'avg') FROM SnapIds");
        (* counts are 3, 2, 4 -> avg 3.0 *)
        Alcotest.(check (list row)) "avg" [ [ R.Real 3.0 ] ] (q ctx "SELECT * FROM T"));
    Alcotest.test_case "AggTable avg visible value stays current per iteration" `Quick
      (fun () ->
        let ctx = history () in
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT g, COUNT(*) AS c FROM ev GROUP BY g" ~table:"T"
             ~aggs:[ ("c", "avg") ]);
        (* g1: 2,2,2 -> 2.0; g2: 1,(absent),2 -> 1.5 *)
        Alcotest.(check (list row)) "avgs"
          [ [ R.Text "g1"; R.Real 2.0 ]; [ R.Text "g2"; R.Real 1.5 ] ]
          (q ctx "SELECT g, c FROM T ORDER BY g")) ]

let single_row =
  [ Alcotest.test_case "AggTable without grouping columns follows its row when it moves" `Quick
      (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE t (name TEXT)";
        e
          ("INSERT INTO t VALUES "
          ^ String.concat ", " (List.init 300 (fun i -> Printf.sprintf "('n%03d')" i)));
        ignore (Rql.declare_snapshot ctx);
        (* the running MAX grows past the free space of its page, so the
           result row is rewritten on another page with a new rid *)
        let long = String.make 3000 'z' in
        e "BEGIN";
        e (Printf.sprintf "INSERT INTO t VALUES ('%s')" long);
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "INSERT INTO t VALUES ('a')";
        ignore (Rql.declare_snapshot ctx);
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all ~qq:"SELECT name AS m FROM t" ~table:"T"
             ~aggs:[ ("m", "MAX") ]);
        (* the first iteration stores one row per Qq row; later ones fold
           into the last of them *)
        Alcotest.(check (list row)) "rows and maximum"
          [ [ R.Int 300; R.Text long ] ]
          (q ctx "SELECT COUNT(*), MAX(m) FROM T")) ]

let intervals =
  [ Alcotest.test_case "multi-column interval keys" `Quick (fun () ->
        let ctx = history () in
        ignore
          (Rql.collate_data_into_intervals ctx ~qs:qs_all ~qq:"SELECT u, g FROM ev"
             ~table:"T");
        (* u3 is deleted before snapshot 2 and reinserted before 3 *)
        Alcotest.(check (list row)) "lifetimes"
          [ [ R.Text "u1"; R.Text "g1"; R.Int 1; R.Int 3 ];
            [ R.Text "u2"; R.Text "g1"; R.Int 1; R.Int 3 ];
            [ R.Text "u3"; R.Text "g2"; R.Int 1; R.Int 1 ];
            [ R.Text "u3"; R.Text "g2"; R.Int 3; R.Int 3 ];
            [ R.Text "u4"; R.Text "g2"; R.Int 3; R.Int 3 ] ]
          (q ctx "SELECT * FROM T ORDER BY u, start_snapshot"));
    Alcotest.test_case "sparse Qs yields per-selected-snapshot contiguity" `Quick (fun () ->
        (* with snapshots {1,3}, u3 disappears at 2 but is present in
           both selected snapshots: the interval spans them because
           contiguity is relative to the iterated set (prev iteration),
           matching the paper's operational definition *)
        let ctx = history () in
        ignore
          (Rql.collate_data_into_intervals ctx
             ~qs:"SELECT snap_id FROM SnapIds WHERE snap_id <> 2"
             ~qq:"SELECT u FROM ev WHERE u = 'u3'" ~table:"T");
        Alcotest.(check (list row)) "one interval over the selected set"
          [ [ R.Text "u3"; R.Int 1; R.Int 3 ] ]
          (q ctx "SELECT * FROM T")) ]

let isolation =
  [ Alcotest.test_case "meta database rows are not snapshotted" `Quick (fun () ->
        let ctx = history () in
        ignore (Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"T");
        (* data db snapshots know nothing about T *)
        Alcotest.(check bool) "T not in data db" true
          (try
             ignore (E.exec ctx.Rql.data "SELECT * FROM T");
             false
           with E.Error _ -> true);
        Alcotest.(check bool) "meta db refuses AS OF" true
          (try
             ignore (E.exec ctx.Rql.meta "SELECT AS OF 1 * FROM SnapIds");
             false
           with E.Error _ -> true));
    Alcotest.test_case "mechanism runs do not disturb data-db snapshots" `Quick (fun () ->
        let ctx = history () in
        let before = q ctx "SELECT snap_id FROM SnapIds" in
        ignore (Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"T");
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT g, COUNT(*) AS c FROM ev GROUP BY g" ~table:"T2"
             ~aggs:[ ("c", "sum") ]);
        Alcotest.(check (list row)) "snapids unchanged" before
          (q ctx "SELECT snap_id FROM SnapIds");
        Alcotest.(check int) "snapshot count unchanged" 3
          (Retro.snapshot_count (Sqldb.Db.retro_exn ctx.Rql.data));
        Alcotest.(check (list string)) "data db integrity" []
          (Sqldb.Integrity.check ctx.Rql.data);
        Alcotest.(check (list string)) "meta db integrity" []
          (Sqldb.Integrity.check ctx.Rql.meta)) ]

let () =
  Alcotest.run "rql2"
    [ ("stats-invariants", stats_invariants);
      ("ordering", ordering);
      ("all-cold", all_cold);
      ("avg-udf", avg_udf);
      ("single-row", single_row);
      ("intervals", intervals);
      ("isolation", isolation) ]
